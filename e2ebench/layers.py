"""The traced run: each workload's requests replayed in-process, call by
call, with a span around every call into a layer's public functions.

The replay re-enacts what the server does with a request — parse,
resolve, key, probe the answer cache, evaluate the misses in
flush-shaped ``run_grid`` groups; or feed a stream session — so the
spans split one request's in-process time by layer.  A shard probe
re-enacts the sharded router's front half (digest, shared hot tier) on
catalog traffic, so ``serving.shard`` is measured although no gated
workload runs the sharded server.  Layer timings come from the seeded
inputs of the workload each layer serves (its own replay stream), and
the server is only read from outside.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import statistics
import time
import tracemalloc
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.cost import predict_scatter_dxbsp
from repro.experiments import runner
from repro.serving import (
    PredictionService,
    ShardRouter,
    SharedHotTier,
    evaluate_point,
    request_from_dict,
    resolve_bank_map,
    resolve_machine,
    resolve_pattern,
    route_digest,
)
from repro.simulator import StreamSimulator

from tracing import TABLE_LAYERS, Tracer, layer_self_ms
from verify import Verifier
from workloads import (
    STREAM_MACHINES,
    Request,
    StreamSource,
    chunk_pool,
    requests,
    shard_probe_requests,
    warm_set,
)

#: Replayed requests per batched workload.
REPLAY = {"serve-hot": 256, "serve-cold": 40}
#: Requests of the in-process shard probe.
SHARD_PROBE = 200
#: Replayed chunks per stream session kind.
STREAM_REPLAY = {"unbounded": 8, "bounded": 2}


def replay_requests(workload: str, seed: int) -> List[Request]:
    """The fixed replay set of a workload, in send order.  Batched
    workloads draw it from their own stream, so cold questions were
    never asked by the socket phases; stream-trace replays one whole
    session per kind."""
    if workload == "stream-trace":
        out: List[Request] = []
        for kind, chunks in STREAM_REPLAY.items():
            source = StreamSource(seed, kind, f"replay-{kind}")
            out += [source.next() for _ in range(chunks + 1)]
            out += source.finish()
        return out
    it = requests(workload, seed, stream=1)
    return [next(it) for _ in range(REPLAY[workload])]


def hot_tier_slots() -> int:
    """Slots of the shared hot tier the CLI builds (the router's
    default, which ``--workers`` leaves unchanged)."""
    return int(inspect.signature(ShardRouter).parameters[
        "hot_tier_slots"].default)


def _flush_group(meta: Dict[str, Any], req: Any) -> Tuple[Any, ...]:
    """The service's micro-batch group of a parsed request."""
    return (json.dumps(meta["machine"], sort_keys=True), req.engine,
            req.bank_map, req.map_seed, req.op)


def flush_window(seed: int, occupancy: float) -> int:
    """Requests per replayed serve-cold flush: the window whose mean
    points per ``run_grid`` group comes nearest ``occupancy``, the
    ``service.batch_occupancy`` (work items per flush) that the server
    of the same traced run reported.  At least 1."""
    reqs = [(meta, request_from_dict(meta))
            for meta, _line in replay_requests("serve-cold", seed)]

    def points_per_group(window: int) -> float:
        groups = points = 0
        for lo in range(0, len(reqs), window):
            keys = set()
            for meta, req in reqs[lo:lo + window]:
                keys.add(_flush_group(meta, req))
                points += 1 if req.sweep is None \
                    else len(req.sweep["values"])
            groups += len(keys)
        return points / groups

    return min(range(1, len(reqs) + 1),
               key=lambda w: (abs(points_per_group(w) - occupancy), w))


def _sim_label(machine: Any, engine: str) -> str:
    if engine == "event":
        return "simulate.event"
    if machine.queue_capacity is not None:
        return "simulate.batch_fallback"
    return "simulate.batch"


class _TracedPoint:
    """``evaluate_point`` split into its two layers, as a ``run_grid``
    point function: the analytic prediction is a ``core`` span, the
    engine run a ``simulator`` span.  Results equal evaluate_point's."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.grid_fuse = _TracedFuser(tracer)
        #: span name -> [(ns, addresses)], for per-address costs
        self.costs: Dict[str, List[Tuple[int, int]]] = {}

    def _timed(self, name: str, layer: str, op: str, **point: Any
               ) -> Dict[str, Any]:
        t0 = time.perf_counter_ns()
        with self.tracer.span(name, layer):
            out = evaluate_point(op, **point)
        self.costs.setdefault(name, []).append(
            (time.perf_counter_ns() - t0, int(point["addresses"].size)))
        return out

    def __call__(self, op: str, **point: Any) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if op in ("predict", "compare"):
            out = self._timed("evaluate_point.predict", "core",
                              "predict", **point)
        if op in ("simulate", "compare"):
            name = _sim_label(point["machine"], point["engine"])
            out.update(self._timed(name, "simulator", "simulate", **point))
        return out


class _TracedFuser:
    """evaluate_point's fused grid pass, as one simulator span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: [(ns, points)] per fused group
        self.costs: List[Tuple[int, int]] = []

    def key(self, point: Dict[str, Any]) -> Any:
        return evaluate_point.grid_fuse.key(point)  # type: ignore[attr-defined]

    def run(self, points: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        t0 = time.perf_counter_ns()
        with self.tracer.span("simulate_scatter_grid", "simulator"):
            out = evaluate_point.grid_fuse.run(points)  # type: ignore[attr-defined]
        self.costs.append((time.perf_counter_ns() - t0, len(points)))
        return out


class Replay:
    """One in-process re-enactment of a workload's replay set.
    ``seconds`` is the wall time of the request loop alone."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.point = _TracedPoint(tracer)
        #: the flush-shaped groups evaluated (for the unfused pairing)
        self.groups: List[List[Dict[str, Any]]] = []
        self.seconds = 0.0
        #: shard probe: requests the hot tier answered, and the misses
        #: the router would forward to a worker
        self.hot_hits = 0
        self.forwarded = 0

    def _points(self, meta: Dict[str, Any]
                ) -> Iterator[Tuple[Tuple[Any, ...], Dict[str, Any]]]:
        """Parse and resolve one request into its work items, keyed by
        the service's micro-batch group."""
        span = self.tracer.span
        with span("request_from_dict", "serving.request"):
            req = request_from_dict(meta)
        with span("resolve_machine", "serving.request"):
            machine = resolve_machine(req.machine)
            resolve_bank_map(req.bank_map, req.map_seed)
        assert req.pattern is not None
        specs = [req.pattern] if req.sweep is None else [
            dict(req.pattern, **{req.sweep["param"]: v})
            for v in req.sweep["values"]]
        group = _flush_group(meta, req)
        for spec in specs:
            with span("resolve_pattern", "serving.request"):
                addr = resolve_pattern(spec, None)
            yield group, {"op": req.op, "machine": machine,
                          "addresses": addr, "engine": req.engine,
                          "bank_map_kind": req.bank_map,
                          "map_seed": req.map_seed}

    def _window(self, reqs: Sequence[Request], answers: set) -> None:
        """Key every request's work items; evaluate those missing from
        ``answers`` with one ``run_grid`` call per group."""
        span = self.tracer.span
        groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = OrderedDict()
        for meta, _line in reqs:
            for group, point in self._points(meta):
                with span("cache_key", "experiments.runner"):
                    key = runner.cache_key(evaluate_point, point)
                if key not in answers:
                    groups.setdefault(group, []).append(point)
        for points in groups.values():
            self.groups.append(points)
            with span("run_grid", "experiments.runner"):
                runner.run_grid(self.point, points, cache=False)

    def batched(self, reqs: Sequence[Request], window: int,
                warm: Sequence[Request] = ()) -> None:
        """The single-process path, ``window`` requests per flush, with
        the answer cache holding every ``warm`` question."""
        answers = {runner.cache_key(evaluate_point, point)
                   for meta, _ in warm
                   for _g, point in Replay(Tracer(False))._points(meta)}
        t0 = time.perf_counter()
        for lo in range(0, len(reqs), window):
            with self.tracer.span("request", "bench"):
                self._window(reqs[lo:lo + window], answers)
        self.seconds += time.perf_counter() - t0

    def sharded(self, reqs: Sequence[Request], warm: Sequence[Request],
                verifier: Verifier) -> None:
        """The router path: digest, probe a shared hot tier holding the
        ``warm`` answers; misses take the single-process path."""
        tier = SharedHotTier(hot_tier_slots())
        try:
            for meta, _line in warm:
                tier.put(route_digest(meta), {
                    "status": "ok", "op": meta["op"], "engine": "banksim",
                    "machine": "Cray J90", "result": verifier.answer(meta)})
            span = self.tracer.span
            t0 = time.perf_counter()
            for meta, line in reqs:
                with span("request", "bench"):
                    with span("route_digest", "serving.shard"):
                        digest = route_digest(meta)
                    with span("hot_tier_get", "serving.shard"):
                        hit = tier.get(digest)
                    if hit is None:
                        self.forwarded += 1
                        self._window([(meta, line)], set())
                    else:
                        self.hot_hits += 1
            self.seconds += time.perf_counter() - t0
        finally:
            tier.close()

    def stream(self, reqs: Sequence[Request]) -> None:
        """Each session step as the service applies it: parse the
        decoded request, then open / resolve and feed / result."""
        span = self.tracer.span
        sims: Dict[str, StreamSimulator] = {}
        decoded = [json.loads(line) for _meta, line in reqs]
        t0 = time.perf_counter()
        for data in decoded:
            with span("request", "bench"):
                with span("request_from_dict", "serving.request"):
                    req = request_from_dict(data)
                sid = str(req.stream_id)
                if req.action == "open":
                    with span("open", "simulator.stream"):
                        sims[sid] = StreamSimulator(
                            resolve_machine(req.machine))
                elif req.action == "chunk":
                    with span("resolve_pattern", "serving.request"):
                        addr = resolve_pattern(None, req.addresses)
                    bounded = sims[sid].machine.queue_capacity is not None
                    with span("feed_bounded" if bounded else "feed",
                              "simulator.stream"):
                        sims[sid].feed(addr)
                else:
                    with span("result", "simulator.stream"):
                        sims.pop(sid).result()
        self.seconds += time.perf_counter() - t0


def replay(workload: str, seed: int, tracer: Tracer,
           cold_window: int = 1) -> Replay:
    """Replay one workload's fixed request set under ``tracer``;
    serve-cold arrives ``cold_window`` requests per flush."""
    rp = Replay(tracer)
    reqs = replay_requests(workload, seed)
    if workload == "stream-trace":
        rp.stream(reqs)
    elif workload == "serve-hot":
        rp.batched(reqs, 1, warm=warm_set(seed))
    else:
        rp.batched(reqs, cold_window)
    return rp


# ----------------------------------------------------------------------
# in-process service calls, layer probes, the self-time table
# ----------------------------------------------------------------------

def service_calls_ms(workload: str, seed: int, window: int = 1
                     ) -> List[float]:
    """In-process backend time on the replay set, after the server's
    warm-up: one ``serve`` call per ``window`` requests, milliseconds
    each.  The backend is the ``PredictionService`` the CLI builds,
    with its default knobs and no disk memo."""
    out = []
    reqs = [json.loads(line) for _m, line in replay_requests(workload, seed)]
    with PredictionService(disk_cache=False) as svc:
        if workload == "serve-hot":
            svc.serve([meta for meta, _line in warm_set(seed)])
        for lo in range(0, len(reqs), window):
            t0 = time.perf_counter()
            responses = svc.serve(reqs[lo:lo + window])
            out.append((time.perf_counter() - t0) * 1e3)
            bad = [r.error for r in responses if not r.ok]
            if bad:
                raise RuntimeError(f"in-process service failed: {bad[0]}")
    return out


def grid_pairing(groups: Sequence[List[Dict[str, Any]]]
                 ) -> Dict[str, float]:
    """The flush-shaped groups through ``run_grid`` with fusion on (as
    the service runs them) and off: median milliseconds per group, the
    share of points the fused pass took, and — from the unfused pass,
    where every point runs its own engine — nanoseconds per address of
    each engine path."""
    fused, unfused = [], []
    before = runner.grid_stats()
    for points in groups:
        t0 = time.perf_counter()
        runner.run_grid(evaluate_point, points, cache=False)
        fused.append((time.perf_counter() - t0) * 1e3)
    after = runner.grid_stats()
    single = _TracedPoint(Tracer(enabled=False))
    for points in groups:
        t0 = time.perf_counter()
        runner.run_grid(single, points, cache=False, fuse=False)
        unfused.append((time.perf_counter() - t0) * 1e3)
    out = {
        "runner.run_grid_ms": statistics.median(fused),
        "runner.run_grid_unfused_ms": statistics.median(unfused),
        "runner.fused_share": (after.fused_points - before.fused_points)
        / (after.points - before.points),
    }
    for label in ("batch", "batch_fallback", "event"):
        out[f"simulator.{label}_ns_per_addr"] = statistics.median(
            ns / n for ns, n in single.costs[f"simulate.{label}"])
    return out


def stream_peak_mb(seed: int) -> float:
    """tracemalloc peak of an in-process unbounded session fed the
    replayed chunks."""
    pool = chunk_pool(seed, "unbounded")
    tracemalloc.start()
    try:
        sim = StreamSimulator(resolve_machine("j90"))
        for i in range(STREAM_REPLAY["unbounded"]):
            sim.feed(pool[i % len(pool)])
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def exact_counts(workload: str, seed: int, verifier: Verifier
                 ) -> Tuple[float, float]:
    """``(sum of simulated_time, median dxbsp_time / simulated_time)``
    over the replay set's answers — exact, so equal for equal seeds.
    A stream session counts as one compare of its whole trace."""
    cycles = 0.0
    ratios: List[float] = []
    if workload == "stream-trace":
        for kind, chunks in STREAM_REPLAY.items():
            pool = chunk_pool(seed, kind)
            machine = resolve_machine(STREAM_MACHINES[kind])
            addr = np.concatenate([pool[i % len(pool)]
                                   for i in range(chunks)])
            sim = StreamSimulator(machine)
            sim.feed(addr)
            simulated = float(sim.result().time)
            cycles += simulated
            ratios.append(
                predict_scatter_dxbsp(machine.params(), addr) / simulated)
        return cycles, statistics.median(ratios)
    for meta, _line in replay_requests(workload, seed):
        answer = verifier.answer(meta)
        for row in answer.get("rows", [answer]):
            if "simulated_time" in row:
                cycles += row["simulated_time"]
                if "dxbsp_time" in row:
                    ratios.append(row["dxbsp_time"] / row["simulated_time"])
    return cycles, statistics.median(ratios)


def _median_us(tracer: Tracer, name: str) -> float:
    return statistics.median(tracer.durations_us(name))


def probe_metrics(seed: int, verifier: Verifier, cold_window: int
                  ) -> Dict[str, float]:
    """Every per-layer timing, each on the replay set of the workload
    that exercises the layer (same seed), and the shard probe's hot-tier
    counts."""
    traced = {w: Tracer() for w in ("serve-hot", "serve-cold",
                                    "stream-trace")}
    cold = {w: replay(w, seed, tracer, cold_window)
            for w, tracer in traced.items()}["serve-cold"]
    hot, stream = traced["serve-hot"], traced["stream-trace"]
    probe = Replay(Tracer())
    probe.sharded(shard_probe_requests(seed, SHARD_PROBE),
                  warm_set(seed), verifier)
    shard = probe.tracer
    out = {
        "request.parse_us": _median_us(hot, "request_from_dict"),
        "request.resolve_pattern_us": _median_us(hot, "resolve_pattern"),
        "runner.cache_key_us": _median_us(hot, "cache_key"),
        "shard.route_digest_us": _median_us(shard, "route_digest"),
        "shard.hot_tier_get_us": _median_us(shard, "hot_tier_get"),
        "shard.hot_hit_ratio": probe.hot_hits / SHARD_PROBE,
        "shard.forwarded": probe.forwarded,
        "core.predict_us": _median_us(traced["serve-cold"],
                                      "evaluate_point.predict"),
        "simulator.grid_us_per_point": statistics.median(
            ns / k / 1e3 for ns, k in cold.point.grid_fuse.costs),
        "stream.feed_ms": _median_us(stream, "feed") / 1e3,
        "stream.feed_bounded_ms": _median_us(stream, "feed_bounded") / 1e3,
        "stream.peak_traced_mb": stream_peak_mb(seed),
    }
    out.update(grid_pairing(cold.groups))
    return out


#: Untraced/traced replay pairs behind the tracing-overhead figure.
OVERHEAD_PAIRS = 3

@dataclasses.dataclass
class LayerTable:
    """Per-layer self time of one workload's replay, summed over its
    requests, and the tracing overhead of that replay."""

    rows: Dict[str, float]
    requests: int
    overhead_pct: float
    tracer: Tracer


def layer_table(workload: str, seed: int, rtt_ms: Sequence[float],
                call_ms: Sequence[float], cold_window: int) -> LayerTable:
    """Self time per layer for ``workload``.  Spans give the layers the
    replay calls into.  Two rows are differences, taken request by
    request (flush window by flush window for serve-cold) and summed as
    their median times the count, so one noisy request cannot swing
    them: ``serving.service`` is what the in-process backend costs
    beyond the replayed calls (queueing, batching, dispatch), and
    ``serving.frontend`` what a socket round trip (``rtt_ms``, one
    request in flight) costs beyond the in-process call (``call_ms``).

    After one warm-up, the replay runs untraced and traced
    ``OVERHEAD_PAIRS`` times, alternating which goes first; the median
    relative difference is the tracing overhead, and the last traced
    replay gives the table."""
    window = cold_window if workload == "serve-cold" else 1
    served_ms = service_calls_ms(workload, seed, window) if window > 1 \
        else call_ms
    replay(workload, seed, Tracer(enabled=False), cold_window)
    overheads = []
    for i in range(OVERHEAD_PAIRS):
        tracer = Tracer()
        order = [Tracer(enabled=False), tracer][::1 if i % 2 == 0 else -1]
        seconds = {t.enabled: replay(workload, seed, t, cold_window).seconds
                   for t in order}
        overheads.append((seconds[True] - seconds[False]) / seconds[False])
    spans_ms = layer_self_ms(tracer.spans, skip="bench")
    roots = [(s[4] - s[3]) / 1e6 for s in tracer.spans if s[2] < 0]
    rows = {layer: spans_ms.get(layer, 0.0) for layer in TABLE_LAYERS}
    rows["serving.service"] = _median_total(served_ms, roots)
    rows["serving.frontend"] = _median_total(rtt_ms, call_ms)
    return LayerTable(rows, len(call_ms),
                      100.0 * statistics.median(overheads), tracer)


def _median_total(outer: Sequence[float], inner: Sequence[float]) -> float:
    """``len × median(outer_i - inner_i)`` over paired measurements."""
    return len(outer) * statistics.median(o - i for o, i in zip(outer, inner))
