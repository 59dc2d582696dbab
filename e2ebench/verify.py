"""Answer verification, outside every timed window.

Each served answer is recomputed in-process from the same request: the
batched ops through :func:`repro.serving.evaluate_point` on the
resolved machine and pattern, stream sessions through a fresh
:class:`repro.simulator.StreamSimulator` fed the same chunks.  Answers
must match bit for bit (JSON round-trips Python floats exactly).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.serving import (
    evaluate_point,
    request_from_dict,
    resolve_machine,
    resolve_pattern,
)
from repro.simulator import StreamSimulator

from client import Record
from workloads import STREAM_MACHINES, chunk_pool, question_key


def expected_answer(request: Dict[str, Any]) -> Dict[str, Any]:
    """The ``result`` a correct server returns for a batched request."""
    req = request_from_dict(request)
    machine = resolve_machine(req.machine)

    def point(pattern: Dict[str, Any]) -> Dict[str, Any]:
        return evaluate_point(
            req.op, machine, resolve_pattern(pattern, None),
            req.engine, req.bank_map, req.map_seed,
        )

    assert req.pattern is not None
    if req.sweep is None:
        return point(req.pattern)
    param = req.sweep["param"]
    return {"param": param, "rows": [
        dict(value=v, **point(dict(req.pattern, **{param: v})))
        for v in req.sweep["values"]
    ]}


#: A stream session's state: its kind and the pool indices fed so far.
SessionKey = Tuple[str, Tuple[int, ...]]


class Verifier:
    """Checks answers and tallies the exact counters the run reports.

    Batched answers are memoized by question, so a hot workload's
    thousands of repeats cost one evaluation per catalog entry.  Stream
    answers are memoized by the chunk sequence fed so far, so sessions
    that feed the same chunks in the same order (every closed-loop
    round does) are simulated once."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._answers: Dict[str, Dict[str, Any]] = {}
        #: Expected chunk and close fields after each fed prefix.
        self._prefixes: Dict[SessionKey, Tuple[Dict[str, Any],
                                               Dict[str, Any]]] = {}
        #: Per kind, the simulator that fed the longest prefix so far.
        self._frontier: Dict[str, Tuple[StreamSimulator,
                                        Tuple[int, ...]]] = {}
        #: One line per wrong answer: request id and what differed.
        self.mismatches: List[str] = []

    def answer(self, request: Dict[str, Any]) -> Dict[str, Any]:
        key = question_key(request)
        if key not in self._answers:
            self._answers[key] = expected_answer(request)
        return self._answers[key]

    def _fail(self, rec: Record, why: str) -> None:
        self.mismatches.append(f"{rec.meta.get('request_id')}: {why}")

    def check_batched(self, records: List[Record]) -> None:
        """Verify ``ok`` batched answers (non-``ok`` answers are counted
        by the caller)."""
        for rec in records:
            if not rec.ok:
                continue
            resp = rec.response
            assert resp is not None
            if resp.get("request_id") != rec.meta.get("request_id"):
                self._fail(rec, "answer paired with the wrong request")
            elif resp["result"] != self.answer(rec.meta):
                self._fail(rec, "result differs from evaluate_point")

    def _fresh(self, kind: str) -> StreamSimulator:
        return StreamSimulator(resolve_machine(STREAM_MACHINES[kind]))

    def _prefix(self, kind: str, chunks: Tuple[int, ...]
                ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Expected fields of the chunk answer that ends ``chunks`` and
        of a close right after it, from a simulator fed exactly those
        pool chunks in order."""
        key = (kind, chunks)
        if key in self._prefixes:
            return self._prefixes[key]
        if not chunks:
            sim = self._fresh(kind)
            return {}, dict(n=sim.n, simulated_time=float(sim.result().time),
                            prefix_digest=sim.prefix_digest)
        sim, fed = self._frontier.get(kind, (None, ()))
        if sim is None or chunks[:len(fed)] != fed:
            sim, fed = self._fresh(kind), ()
        pool = chunk_pool(self.seed, kind)
        for index in chunks[len(fed):]:
            update = sim.feed(pool[index])
            fed += (index,)
            self._prefixes[(kind, fed)] = (
                dict(n=update.n, chunk_n=update.chunk_n,
                     simulated_time=float(update.result.time),
                     prefix_digest=sim.prefix_digest),
                dict(n=sim.n, simulated_time=float(sim.result().time),
                     prefix_digest=sim.prefix_digest))
        self._frontier[kind] = (sim, fed)
        return self._prefixes[key]

    def check_session(self, records: List[Record]) -> None:
        """Verify one stream session's answers (in send order): every
        chunk's prefix result and the close against a simulator fed
        the same chunks."""
        opened = records[0].meta
        kind = next(k for k, m in STREAM_MACHINES.items()
                    if m == opened["machine"])
        chunks: Tuple[int, ...] = ()
        for rec in records:
            if not rec.ok:
                continue
            meta, resp = rec.meta, rec.response
            assert resp is not None
            want: Dict[str, Any] = {"request_id": meta["request_id"]}
            if meta["action"] == "chunk":
                chunks += (meta["chunk"],)
                want.update(self._prefix(kind, chunks)[0])
            elif meta["action"] == "close":
                want.update(self._prefix(kind, chunks)[1])
            got = dict(resp["result"], request_id=resp.get("request_id"))
            diff = sorted(k for k, v in want.items() if got.get(k) != v)
            if diff:
                self._fail(rec, f"stream fields differ: {diff}")
