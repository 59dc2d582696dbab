"""Tests of the benchmark's own code.

Run with ``python -m pytest e2ebench/tests`` from the repository root.
"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads
from tracing import Tracer, layer_self_ms, self_times_ns

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _lines(it, count):
    return [line for _meta, line in itertools.islice(it, count)]


@pytest.mark.parametrize("workload", ["serve-hot", "serve-cold"])
def test_same_seed_same_bytes(workload):
    first = _lines(workloads.requests(workload, 7), 300)
    assert first == _lines(workloads.requests(workload, 7), 300)
    assert first != _lines(workloads.requests(workload, 8), 300)
    replay = [line for _m, line in layers.replay_requests(workload, 7)]
    assert replay == [line for _m, line in
                      layers.replay_requests(workload, 7)]
    assert not set(replay) & set(first)


def test_shard_probe_same_bytes():
    def probe(seed):
        return [line for _m, line in workloads.shard_probe_requests(seed, 60)]

    assert probe(7) == probe(7)
    assert probe(7) != probe(8)
    metas = [m for m, _ in workloads.shard_probe_requests(7, 60)]
    catalog = {workloads.question_key(q) for q in workloads.catalog(7)}
    misses = [m for m in metas if workloads.question_key(m) not in catalog]
    assert len(misses) == 60 // workloads.SHARD_MISS_EVERY
    assert len({workloads.question_key(m) for m in misses}) == len(misses)


def test_flush_window_follows_the_server():
    """A server that flushed one request at a time gives a window of 1;
    fuller flushes give wider windows."""
    assert layers.flush_window(7, 0.0) == 1
    assert layers.flush_window(7, 1.0) == 1
    assert layers.flush_window(7, 6.0) > layers.flush_window(7, 2.5) > 1


def test_stream_sessions_same_bytes():
    def session(seed):
        src = workloads.StreamSource(seed, "bounded", "s")
        return [src.next()[1] for _ in range(10)] + \
            [line for _m, line in src.finish()]

    assert session(3) == session(3)
    assert session(3) != session(4)
    src = workloads.StreamSource(3, "unbounded", "s")
    assert src.next()[0]["action"] == "open"
    _meta, line = src.next()
    full = json.loads(line)
    assert full["addresses"] == \
        workloads.chunk_pool(3, "unbounded")[0].tolist()
    assert line == workloads.encode(full)


def _served_session(seed, kind, sid, chunks):
    """Records of one session as a correct server answers it."""
    from repro.serving import resolve_machine
    from repro.simulator import StreamSimulator

    from client import Record

    src = workloads.StreamSource(seed, kind, sid)
    sim = StreamSimulator(resolve_machine(workloads.STREAM_MACHINES[kind]))
    pool = workloads.chunk_pool(seed, kind)
    records = []
    for meta, _line in [src.next() for _ in range(chunks + 1)] + \
            src.finish():
        result = {}
        if meta["action"] == "chunk":
            update = sim.feed(pool[meta["chunk"]])
            result = dict(n=update.n, chunk_n=update.chunk_n,
                          simulated_time=float(update.result.time),
                          prefix_digest=sim.prefix_digest)
        elif meta["action"] == "close":
            result = dict(n=sim.n, simulated_time=float(sim.result().time),
                          prefix_digest=sim.prefix_digest)
        records.append(Record(meta, 0.0, 0.0, 0.0, {
            "status": "ok", "request_id": meta["request_id"],
            "result": result}))
    return records


def test_stream_check_is_shared_and_exact():
    """Sessions of one chunk sequence share the simulation, yet a longer
    or shorter session and a wrong field are each checked exactly."""
    from verify import Verifier

    verifier = Verifier(3)
    for sid, chunks in (("a", 3), ("b", 3), ("c", 10), ("d", 1)):
        verifier.check_session(_served_session(3, "unbounded", sid, chunks))
    verifier.check_session(_served_session(3, "bounded", "e", 1))
    assert verifier.mismatches == []
    wrong = _served_session(3, "unbounded", "f", 4)
    wrong[2].response["result"]["simulated_time"] += 1.0
    wrong[-1].response["result"]["prefix_digest"] = "0" * 64
    verifier.check_session(wrong)
    assert [m.split(":")[0] for m in verifier.mismatches] == \
        ["f-1", "f-close"]


def test_cold_questions_are_distinct():
    reqs = [meta for meta, _ in itertools.islice(
        workloads.requests("serve-cold", 5), 400)]
    keys = {workloads.question_key(r) for r in reqs}
    assert len(keys) == len(reqs)


def _shape(meta):
    pattern = meta["pattern"]
    return (meta["op"], meta.get("engine"), json.dumps(meta["machine"]),
            pattern["kind"], pattern["n"], pattern.get("k"),
            pattern.get("stride"), "sweep" in meta)


@pytest.mark.parametrize("workload", ["serve-hot", "serve-cold"])
def test_blocks_have_a_fixed_shape(workload):
    """Every block asks the same kinds of question in the same order,
    whatever the seed: seeds change addresses, not the work."""
    counts = workloads.block_counts(1.0 / (1.0 + np.arange(64)), 512)
    assert sum(counts) == 512 and min(counts) >= 1
    size = workloads.HOT_BLOCK if workload == "serve-hot" else 20
    shapes = [[_shape(m) for m, _ in itertools.islice(
        workloads.requests(workload, seed), 2 * size)] for seed in (1, 2)]
    assert shapes[0] == shapes[1]
    assert shapes[0][:size] == shapes[0][size:]


def test_names_match_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.LAYER_UNITS
    names = [w["name"] for w in spec["workloads"]] + \
        list(run.E2E_UNITS) + list(run.LAYER_UNITS)
    for name in names:
        assert NAME.fullmatch(name), name


def _span(name, layer, parent, start, end):
    return [name, layer, parent, start, end]


def test_self_time_is_span_minus_child_coverage():
    spans = [
        _span("root", "bench", -1, 0, 100),
        _span("a", "serving.request", 0, 10, 40),
        _span("b", "experiments.runner", 0, 30, 60),   # overlaps a
        _span("c", "simulator", 2, 35, 50),
        _span("d", "core", 0, 90, 120),                # runs past root
    ]
    # root: 100 - |[10,60) u [90,100)| = 100 - 60 = 40
    assert self_times_ns(spans) == [40, 30, 15, 15, 30]
    assert layer_self_ms(spans, skip="bench") == {
        "serving.request": 30e-6, "experiments.runner": 15e-6,
        "simulator": 15e-6, "core": 30e-6}


def test_tracer_nests_and_disables():
    tracer = Tracer()
    with tracer.span("outer", "x"):
        with tracer.span("inner", "y"):
            pass
    assert [(s[0], s[2]) for s in tracer.spans] == [("outer", -1),
                                                    ("inner", 0)]
    off = Tracer(enabled=False)
    with off.span("outer", "x"):
        pass
    assert off.spans == []


def test_reprolint_clean():
    out = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "e2ebench"],
        cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_has_no_errors(workload):
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def _session_members(sid):
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def test_traced_run_leaves_no_process():
    proc = subprocess.Popen(
        [sys.executable, "e2ebench/run.py", "--workload", "serve-hot",
         "--seed", "11", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert json.loads(out.splitlines()[-1])["correct"]
    assert _session_members(proc.pid) == []


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "e2ebench").mkdir()
    for path in (ROOT / "e2ebench").glob("*.py"):
        (tmp_path / "e2ebench" / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
