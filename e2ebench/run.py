#!/usr/bin/env python3
"""End-to-end benchmark of the serving and streaming tiers.

Starts ``python -m repro.serving --http`` as a separate process, drives
it over a real socket from this one client process, checks every
answer, and prints one JSON object as its last line::

    python3 e2ebench/run.py --workload serve-hot --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics (tracing off).
``--trace 1`` is the traced run: the same server phases, shorter, plus
an in-process replay of the workload's requests with a span around
every call into a layer; it prints the per-layer metrics and writes the
spans and the per-layer self-time table under ``e2ebench/.runs/``.
See e2ebench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from client import Client, Phase
from server import ServerProcess
from tracing import TABLE_LAYERS, format_table
from workloads import (
    STREAM_ROUND,
    WORKLOADS,
    Source,
    StreamSource,
    requests,
    warm_set,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server launches per untraced run; set-up time is their median, and
#: each serves an equal share of the load.  One launch can run a fifth
#: faster or slower than the next for its whole life (a stream server
#: held 17.6-18.4 chunks/s over six rounds, the next 19.6-26.8), so one
#: launch per run would carry that into every figure.
LAUNCHES = 3
#: Share of ``--seconds`` spent in the closed loop; the rest is the
#: open loop, whose tail percentile needs the larger sample.  The traced
#: run spends half as long in both.
CLOSED_SHARE = 0.5
#: Closed-then-open rounds of each launch's share of the load.
ROUNDS = 2

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "sim_addr_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "frontend.overhead_ms": "ms",
    "frontend.nagle_stall_ms": "ms",
    "request.parse_us": "us",
    "request.resolve_pattern_us": "us",
    "runner.cache_key_us": "us",
    "runner.run_grid_ms": "ms",
    "runner.run_grid_unfused_ms": "ms",
    "runner.fused_share": "ratio",
    "service.call_ms": "ms",
    "service.lru_hit_ratio": "ratio",
    "service.batch_occupancy": "count",
    "service.evals_per_request": "ratio",
    "service.queue_high_water": "count",
    "service.shed": "count",
    "service.expired": "count",
    "service.failed": "count",
    "shard.route_digest_us": "us",
    "shard.hot_tier_get_us": "us",
    "shard.hot_hit_ratio": "ratio",
    "shard.forwarded": "count",
    "core.predict_us": "us",
    "simulator.batch_ns_per_addr": "ns",
    "simulator.batch_fallback_ns_per_addr": "ns",
    "simulator.event_ns_per_addr": "ns",
    "simulator.grid_us_per_point": "us",
    "simulator.sim_cycles_total": "cycles",
    "stream.feed_ms": "ms",
    "stream.feed_bounded_ms": "ms",
    "stream.peak_traced_mb": "MB",
    "model.dxbsp_over_sim_median": "ratio",
    "trace.overhead_pct": "%",
    **{f"self.{layer}": "ms/req" for layer in TABLE_LAYERS},
}


def _sources_present() -> bool:
    return (SRC / "repro" / "serving" / "__main__.py").is_file()


class Tally:
    """Requests attempted and failed over a whole run, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.ok = 0

    def add(self, records: Sequence[Any], mismatches: Sequence[str]) -> None:
        """Count ``records``; non-``ok`` answers and ``mismatches`` (the
        verifier's wrong ``ok`` answers) fail."""
        self.attempted += len(records)
        bad = sum(1 for r in records if not r.ok)
        self.ok += len(records) - bad
        self.failed += bad + len(mismatches)
        if bad:
            sample = next(r for r in records if not r.ok).response
            self.problems.append(f"{bad} non-ok answers, e.g. {sample}")
        if mismatches:
            self.problems.append(f"{len(mismatches)} answers differ from "
                                 f"the library, e.g. {mismatches[0]}")

    def problem(self, text: str) -> None:
        self.problems.append(text)


def _check_stop(stop: Dict[str, Any], tally: Tally) -> None:
    if stop["exit_code"] != 0:
        tally.problem(f"server exited with {stop['exit_code']}")
    if stop["leaked_pids"]:
        tally.problem(f"server left processes {stop['leaked_pids']}")
    if stop["leaked_shm"]:
        tally.problem(f"server left segments {stop['leaked_shm']}")


def _counters(live: Dict[str, Any]) -> Dict[str, float]:
    """Service counters from the live ``GET /metrics`` manifest."""
    probes = live["lru_hits"] + live["disk_hits"] + live["batched_requests"]
    return {
        "service.lru_hit_ratio": (live["lru_hits"] + live["disk_hits"])
        / probes if probes else 0.0,
        "service.batch_occupancy": live["batched_requests"]
        / live["batches"] if live["batches"] else 0.0,
        "service.evals_per_request": live["evaluations"] / live["served"]
        if live["served"] else 0.0,
        "service.queue_high_water": live["queue_high_water"],
        "service.shed": live["shed"],
        "service.expired": live["expired"],
        "service.failed": live["failed"],
    }


def _cross_check(tally: Tally, live: Dict[str, Any], ok: int) -> None:
    """The server's own count must match the ``ok`` answers the client
    got from it."""
    if live["served"] != ok:
        tally.problem(f"/metrics served={live['served']} but the "
                      f"client got {ok} ok answers")


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _addresses(rec: Any) -> int:
    """Simulated addresses an ``ok`` answer covers."""
    result = rec.response["result"]
    if rec.meta["op"] == "stream":
        return result.get("chunk_n", 0)
    if rec.meta["op"] == "predict":
        return 0
    return sum(row["n"] for row in result.get("rows", [result]))


def _is_timed(rec: Any) -> bool:
    return rec.meta["op"] != "stream" or rec.meta["action"] == "chunk"


def _open_p50(phases: Sequence[Phase]) -> float:
    """Median latency from due time over open-loop phases."""
    return _percentile([(r.t_recv - r.t_due) * 1e3 for p in phases
                        for r in p.records if r.ok and _is_timed(r)], 50)


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 run_dir: Path) -> None:
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.tally = Tally()
        #: Human-readable extras printed beside the metrics.
        self.notes: Dict[str, float] = {}
        self._source: Optional[Source] = None
        self._verifier: Any = None

    # -- server phases -----------------------------------------------------

    def _launch(self, tag: str) -> ServerProcess:
        return ServerProcess(ROOT, self.run_dir / tag)

    def _verify(self, records: List[Any], verifier: Any) -> None:
        """Check every answer of one launch (stream sessions in send
        order, across phases) and tally the outcome."""
        seen = len(verifier.mismatches)
        if self.w.name == "stream-trace":
            sessions: Dict[str, List[Any]] = {}
            for rec in records:
                sessions.setdefault(rec.meta["stream_id"], []).append(rec)
            for recs in sessions.values():
                verifier.check_session(recs)
        else:
            verifier.check_batched(records)
        self.tally.add(records, verifier.mismatches[seen:])

    def _warm(self, client: Any) -> Any:
        if self.w.name == "stream-trace":
            reqs = []
            for kind in ("unbounded", "bounded"):
                src = StreamSource(self.seed, kind, f"warm-{kind}")
                reqs += [src.next(), src.next()] + src.finish()
        elif self.w.name == "serve-cold":
            it = requests(self.w.name, self.seed, stream=2)
            reqs = [next(it) for _ in range(20)]
        else:
            reqs = warm_set(self.seed)
        return client.batch(Source(iter(reqs)), 1, len(reqs))

    def _load(self, client: Any, seconds: float, first: int
              ) -> Dict[str, Any]:
        """``ROUNDS`` rounds (numbered from ``first``) of a closed-loop
        segment then an open-loop segment, ``seconds`` in all.
        Spreading both loops over the whole run averages the shared
        machine's slow drifts into every figure instead of catching one
        of them in one phase."""
        closed: List[List[Phase]] = []
        primer: List[Phase] = []
        opened: List[Phase] = []
        for k in range(first, first + ROUNDS):
            closed.append(self._closed_loop(
                client, seconds * CLOSED_SHARE / ROUNDS, k))
            p, o = self._open_loop(
                client, seconds * (1 - CLOSED_SHARE) / ROUNDS, f"open{k}")
            primer += p
            opened.append(o)
        return {"closed": closed, "primer": primer, "open": opened}

    def _closed_loop(self, client: Any, seconds: float, k: int
                     ) -> List[Phase]:
        """One closed-loop segment.  stream-trace runs whole rounds of
        one session per path until time is up; batched workloads keep
        ``outstanding`` requests in flight over both connections,
        continuing one request sequence across segments."""
        w = self.w
        if w.name != "stream-trace":
            if self._source is None:
                self._source = Source(requests(w.name, self.seed))
            return [client.closed_loop([self._source] * 2,
                                       w.outstanding // 2, seconds)]
        out: List[Phase] = []
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            for kind, chunks in STREAM_ROUND.items():
                sid = f"closed{k}-{kind}-{len(out)}"
                out.append(client.batch(StreamSource(self.seed, kind, sid),
                                        w.outstanding, chunks + 1))
        return out

    def _open_loop(self, client: Any, seconds: float, tag: str
                   ) -> Tuple[List[Phase], Phase]:
        """One open-loop segment at the workload's fixed rate.  A stream
        session is opened and fed before timing; batched requests
        continue the closed loop's sequence (a fresh one when the
        closed loop has not run)."""
        w = self.w
        if w.name == "stream-trace":
            src = StreamSource(self.seed, "unbounded", f"{tag}-unbounded")
            primer = [client.batch(src, 1, 3, finish=False)]
            return primer, client.open_loop([src], w.rate, seconds,
                                            w.outstanding)
        if self._source is None:
            self._source = Source(requests(w.name, self.seed, stream=3))
        return [], client.open_loop([self._source] * 2, w.rate, seconds,
                                    1 << 20)

    def _summarize(self, phases: Dict[str, Any]) -> Dict[str, float]:
        """End-to-end figures of the load.  Closed-loop rates are the
        median over the rounds' segments; latency percentiles are over
        every open-loop request of the run."""
        rates, addr_rates, done = [], [], 0
        for segment in phases["closed"]:
            answered = [r for p in segment for r in p.in_window()
                        if r.ok and _is_timed(r)]
            seconds = segment[-1].t_end - segment[0].t_start
            rates.append(len(answered) / seconds)
            addr_rates.append(sum(_addresses(r) for r in answered) / seconds)
            done += len(answered)
        timed = [r for p in phases["open"] for r in p.records
                 if r.ok and _is_timed(r)]
        lat = [(r.t_recv - r.t_due) * 1e3 for r in timed]
        late = [(r.t_sent - r.t_due) * 1e3 for p in phases["open"]
                for r in p.records]
        self.notes = {
            "closed_samples": done,
            "latency_samples": len(timed),
            "generator_late_p50_ms": _percentile(late, 50),
            "generator_late_max_ms": max(late),
        }
        return {
            "throughput_rps": statistics.median(rates),
            "latency_p50_ms": _percentile(lat, 50),
            "latency_p90_ms": _percentile(lat, 90),
            "sim_addr_per_s": statistics.median(addr_rates),
        }

    def _serve(self, server: ServerProcess, load_seconds: float,
               first_round: int,
               extra: Optional[Callable[[Client], List[Phase]]] = None
               ) -> Dict[str, Any]:
        """Warm, load, optional extra phases, then read the counters and
        stop the server; every phase's answers are verified after."""
        from verify import Verifier  # imports repro: after main() set the path

        if self._verifier is None:
            self._verifier = Verifier(self.seed)
        verifier = self._verifier
        ok_before = self.tally.ok
        # The set-up probe, answered ok before start() returned.
        self.tally.ok += 1
        self.tally.attempted += 1
        with Client(server.address) as client:
            warm = self._warm(client)
            phases = self._load(client, load_seconds, first_round)
            more = extra(client) if extra else []
        live = server.http_get("/metrics")
        rss = server.peak_rss_mb()
        stop = server.stop()
        _check_stop(stop, self.tally)
        done = [warm, *sum(phases["closed"], []), *phases["primer"],
                *phases["open"], *more]
        self._verify([r for p in done for r in p.records], verifier)
        _cross_check(self.tally, live, self.tally.ok - ok_before)
        return {"phases": phases, "live": live, "rss": rss,
                "verifier": verifier, "extra": more}

    def run(self) -> Dict[str, float]:
        """The untraced run: end-to-end metrics over ``LAUNCHES``
        launches, each serving an equal share of the load."""
        setups, served = [], []
        for i in range(LAUNCHES):
            server = self._launch(f"launch{i}")
            try:
                setups.append(server.start())
                served.append(self._serve(server, self.seconds / LAUNCHES,
                                          i * ROUNDS))
            finally:
                server.kill_if_running()
        metrics = self._summarize({
            key: sum((s["phases"][key] for s in served), [])
            for key in ("closed", "primer", "open")})
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = max(s["rss"] for s in served)
        return metrics

    def run_traced(self) -> Dict[str, float]:
        """The traced run: per-layer metrics and the self-time table."""
        import layers  # imports repro: after main() set the path

        replay_set = layers.replay_requests(self.w.name, self.seed)
        nagle_s = self.seconds / 8

        def extra(client: Client) -> List[Phase]:
            """Round trips of the replay set with nothing queued, and an
            open loop from a client that keeps delayed ACKs."""
            serial = client.batch(Source(iter(replay_set)), 1,
                                  len(replay_set))
            with Client(server.address, quickack=False) as plain:
                primer, opened = self._open_loop(plain, nagle_s, "nagle")
            return [serial, *primer, opened]

        server = self._launch("traced")
        try:
            server.start()
            served = self._serve(server, self.seconds / 2, 0, extra)
        finally:
            server.kill_if_running()
        verifier = served["verifier"]
        serial, nagle = served["extra"][0], served["extra"][-1]
        rtt = [(r.t_recv - r.t_sent) * 1e3 for r in serial.records]
        calls = layers.service_calls_ms(self.w.name, self.seed)
        metrics: Dict[str, float] = {
            "frontend.overhead_ms":
                statistics.median(rtt) - statistics.median(calls),
            "frontend.nagle_stall_ms": _open_p50([nagle])
            - _open_p50(served["phases"]["open"]),
            "service.call_ms": statistics.median(calls),
        }
        metrics.update(_counters(served["live"]))
        # Replayed serve-cold flushes take the shape this run's server
        # formed: batch occupancy is work items per flush.
        window = layers.flush_window(
            self.seed, metrics["service.batch_occupancy"])
        self.notes = {"cold_replay_window": window,
                      "server_batch_occupancy":
                          metrics["service.batch_occupancy"]}
        metrics.update(layers.probe_metrics(self.seed, verifier, window))
        cycles, ratio = layers.exact_counts(self.w.name, self.seed, verifier)
        metrics["simulator.sim_cycles_total"] = cycles
        metrics["model.dxbsp_over_sim_median"] = ratio
        table = layers.layer_table(self.w.name, self.seed, rtt, calls,
                                   window)
        metrics["trace.overhead_pct"] = table.overhead_pct
        for layer, ms in table.rows.items():
            metrics[f"self.{layer}"] = ms / table.requests
        text = format_table(
            table.rows, table.requests,
            f"{self.w.name} seed {self.seed}: self time per request over "
            f"{table.requests} replayed requests (tracing overhead "
            f"{table.overhead_pct:.1f}%)")
        out = HERE / ".runs" / "traces" / f"{self.w.name}-seed{self.seed}"
        table.tracer.write(out.with_suffix(".spans.json"))
        out.with_suffix(".table.txt").write_text(text + "\n")
        print(text)
        return metrics


def _stop_resource_tracker() -> None:
    """Stop and reap the multiprocessing resource tracker, if this
    process started one.  A shared-memory segment (the traced run's
    hot-tier probe) starts it as a child that would otherwise outlive
    the benchmark for as long as it takes to notice the exit."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is None:
        return
    tracker = module._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="e2ebench/run.py",
        description="socket end-to-end benchmark of repro.serving")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _sources_present():
        print(f"e2ebench: no repro sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated benchmark still stops its server: SIGTERM unwinds
    # through the same finally blocks as an error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = HERE / ".runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, args.seconds, run_dir)
    try:
        if args.trace:
            metrics = bench.run_traced()
            units = LAYER_UNITS
        else:
            metrics = bench.run()
            units = E2E_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        _stop_resource_tracker()
    tally = bench.tally
    for problem in tally.problems:
        print(f"PROBLEM: {problem}")
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"{'error_rate':<40} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed} of {tally.attempted})")
    for key, value in bench.notes.items():
        print(f"{key:<40} {value:>14.6g}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
