"""Seeded request streams for the end-to-end serving benchmark.

Every workload is a pure function of its seed: the same seed yields
byte-identical request lines, and the server sees nothing but those
lines.  The seed picks pattern seeds, and so the addresses; the *shape*
of each workload (how many requests of each kind per block, how big
each one is, where it sits in the block) is fixed, so two seeds cost
the server the same work and the spread across seeds measures the
server, not the draw.

Open-loop rates are constants here, never derived from a measured
capacity; BENCHMARK.json restates them in each workload's ``why``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

#: One request: its decoded form (kept for verification) and its line.
Request = Tuple[Dict[str, Any], bytes]

#: The bounded-queue J90 that pushes the batch engine onto its
#: event-stepped fallback and streams through the pausable event world.
BOUNDED_J90: Dict[str, Any] = {"base": "j90", "queue_capacity": 4}

#: Request sent once per server launch; set-up ends at its ``ok``.
#: The toy machine keeps it out of every workload's answer cache.
SETUP_PROBE: Dict[str, Any] = {
    "op": "predict", "machine": "toy", "request_id": "setup",
    "pattern": {"kind": "stride", "n": 16, "stride": 1},
}

_SPACE = 1 << 24


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix and the load it is offered, on a server with the
    CLI's default single worker.

    ``outstanding`` requests are kept in flight in the closed-loop phase
    (split over the client's two connections; per stream session for
    stream-trace); ``rate`` is the fixed open-loop offer in requests
    (stream chunks) per second.
    """

    name: str
    outstanding: int
    rate: float


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("serve-hot", outstanding=32, rate=100.0),
    Workload("serve-cold", outstanding=16, rate=60.0),
    Workload("stream-trace", outstanding=4, rate=12.0),
)}


def encode(request: Dict[str, Any]) -> bytes:
    """The NDJSON line for one request (canonical key order)."""
    return json.dumps(request, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


def question_key(request: Dict[str, Any]) -> str:
    """Identity of the question a request asks (envelope excluded)."""
    return json.dumps({k: v for k, v in request.items()
                       if k != "request_id"}, sort_keys=True)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _fresh_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2 ** 31))


def block_counts(weights: np.ndarray, size: int) -> List[int]:
    """Occurrences of each item in a block of ``size`` draws: every item
    at least once, the rest split by largest remainder — a fixed
    composition, so each block costs the same whatever the seed."""
    extra = size - len(weights)
    share = weights / weights.sum() * extra
    counts = np.floor(share).astype(int)
    order = np.argsort(-(share - counts), kind="stable")
    counts[order[:extra - int(counts.sum())]] += 1
    return [int(c) + 1 for c in counts]


class Source:
    """The request sequence one connection sends: ``next()`` for the
    next request, ``finish()`` for what must follow the last one."""

    def __init__(self, requests: Iterator[Request]) -> None:
        self._requests = requests

    def next(self) -> Request:
        return next(self._requests)

    def finish(self) -> List[Request]:
        return []


def _with_id(request: Dict[str, Any], rid: str) -> Request:
    req = dict(request, request_id=rid)
    return req, encode(req)


_PHI = (5 ** 0.5 - 1) / 2


def spaced(items: List[Tuple[Dict[str, Any], int]]) -> List[Dict[str, Any]]:
    """One block in a fixed order: each item's occurrences evenly spaced
    over the block, offset by the golden ratio so that no two items
    line up.  A costly question then never lands next to another, and
    every block loads the server the same way."""
    slots = []
    for i, (item, count) in enumerate(items):
        offset = (i * _PHI) % 1.0
        slots += [((k + offset) / count, i, item) for k in range(count)]
    slots.sort(key=lambda slot: slot[:2])
    return [item for _pos, _i, item in slots]


def _blocks(seed: int, stream: int, tag: str,
            make_block: Callable[[np.random.Generator],
                                 List[Dict[str, Any]]]
            ) -> Iterator[Request]:
    """Endless stream of fixed-composition blocks.  Streams of one seed
    are independent draws: the traced replay uses its own
    (``stream=1``), so its misses were never asked before."""
    rng = _rng(seed, 2, stream)
    tag = tag if stream == 0 else f"{tag}{stream}"
    i = 0
    while True:
        for request in make_block(rng):
            yield _with_id(request, f"{tag}-{i}")
            i += 1


# ----------------------------------------------------------------------
# catalog traffic (serve-hot, and the in-process shard probe)
# ----------------------------------------------------------------------

CATALOG_SIZE = 64
ZIPF_S = 1.1
#: Popularity ranks where the hot-spot size doubles, from 1K addresses
#: at the top of the catalog to 64K for the last entry: popular
#: questions are small, so a mean hit costs about a millisecond.  A
#: hit's cost grows with its size, so latency percentiles follow the
#: size tiers.  Two steps at rank 32 go straight from 1K to 4K, and the
#: 4K tier spans 0.836-0.977 of a block: p90 stays inside it even when
#: the few percent of small questions queued behind a large one push
#: it up the order.
_SIZE_STEPS = (32, 32, 58, 60, 62, 63)
_HOT_K = (1, 8, 64, 512)
HOT_BLOCK = 512
#: One in this many requests of the shard probe is a distinct miss.
SHARD_MISS_EVERY = 20


def catalog(seed: int) -> List[Dict[str, Any]]:
    """The question catalog, most popular first: predict and compare
    questions about hot spots of 1K-64K addresses."""
    rng = _rng(seed, 1)
    out = []
    for rank in range(CATALOG_SIZE):
        entry = {
            "op": "compare" if rank % 3 == 2 else "predict",
            "machine": "j90",
            "pattern": {"kind": "hotspot",
                        "n": 1024 << sum(rank >= b for b in _SIZE_STEPS),
                        "k": _HOT_K[rank % len(_HOT_K)],
                        "seed": _fresh_seed(rng)},
        }
        out.append(entry)
    return out


def _popular(cat: List[Dict[str, Any]], size: int
             ) -> List[Tuple[Dict[str, Any], int]]:
    """Each catalog entry with its Zipf share of a ``size`` block."""
    weights = 1.0 / np.arange(1, len(cat) + 1) ** ZIPF_S
    return list(zip(cat, block_counts(weights, size)))


def warm_set(seed: int) -> List[Request]:
    """Every catalog question once, asked before timing starts."""
    return [_with_id(q, f"warm-{i}") for i, q in enumerate(catalog(seed))]


def hot_requests(seed: int, stream: int = 0) -> Iterator[Request]:
    """serve-hot: Zipf-popular repeats of the catalog."""
    block = spaced(_popular(catalog(seed), HOT_BLOCK))
    return _blocks(seed, stream, "hot", lambda _rng: block)


def shard_probe_requests(seed: int, count: int) -> List[Request]:
    """The in-process shard probe: ``count`` serve-hot catalog requests
    with every ``SHARD_MISS_EVERY``-th one replaced by a distinct 1K
    hot-spot predict that no catalog entry answers."""
    hits = hot_requests(seed, stream=1)
    rng = _rng(seed, 4)
    out = []
    for i in range(count):
        request = next(hits)
        if i % SHARD_MISS_EVERY == SHARD_MISS_EVERY - 1:
            request = _with_id({"op": "predict", "machine": "j90",
                                "pattern": {"kind": "hotspot", "n": 1024,
                                            "k": 8,
                                            "seed": _fresh_seed(rng)}},
                               f"miss-{i}")
        out.append(request)
    return out


# ----------------------------------------------------------------------
# cold traffic (serve-cold)
# ----------------------------------------------------------------------

COLD_N = 16384
COLD_BOUNDED_N = 1024
COLD_SWEEP_N = 4096
COLD_SWEEP_POINTS = 8
#: Strides of the compare questions (odd, even, bank-colliding powers).
COLD_STRIDES = (1, 3, 8, 16)


def _cold_block(rng: np.random.Generator, used: set) -> List[Dict[str, Any]]:
    """Twenty distinct questions: unbounded batch simulate/compare and
    predict at 16K, bounded-queue batch (fallback) and event simulate,
    and two 8-point compare sweeps that take the fused run_grid path."""

    def seed() -> int:
        while True:
            s = _fresh_seed(rng)
            if s not in used:
                used.add(s)
                return s

    def uniform(n: int) -> Dict[str, Any]:
        return {"kind": "uniform", "n": n, "seed": seed()}

    block: List[Dict[str, Any]] = []
    for stride in COLD_STRIDES:
        block.append({"op": "simulate", "machine": "j90", "engine": "batch",
                      "pattern": uniform(COLD_N)})
        block.append({"op": "compare", "machine": "j90", "engine": "batch",
                      "pattern": {"kind": "stride", "n": COLD_N,
                                  "stride": stride, "base": seed()}})
    for engine in ("batch", "batch", "event", "event"):
        block.append({"op": "simulate", "machine": BOUNDED_J90,
                      "engine": engine,
                      "pattern": {"kind": "hotspot", "n": COLD_BOUNDED_N,
                                  "k": 64, "seed": seed()}})
    for _ in range(2):
        block.append({"op": "compare", "machine": "j90", "engine": "batch",
                      "pattern": uniform(COLD_SWEEP_N),
                      "sweep": {"param": "seed", "values": [
                          seed() for _ in range(COLD_SWEEP_POINTS)]}})
    for _ in range(6):
        block.append({"op": "predict", "machine": "j90",
                      "pattern": uniform(COLD_N)})
    return spaced([(req, 1) for req in block])


def cold_requests(seed: int, stream: int = 0) -> Iterator[Request]:
    """serve-cold: every question distinct."""
    used: set = set()
    return _blocks(seed, stream, "cold", lambda rng: _cold_block(rng, used))


# ----------------------------------------------------------------------
# stream traffic (stream-trace)
# ----------------------------------------------------------------------

CHUNK = 65536
CHUNK_POOL = 8
STREAM_MACHINES: Dict[str, Any] = {"unbounded": "j90",
                                   "bounded": BOUNDED_J90}
#: Chunks per session in one closed-loop round.  A bounded-queue chunk
#: costs about twelve unbounded ones, so each path takes about half of
#: a round and a slowdown of either moves the round's time.
STREAM_ROUND: Dict[str, int] = {"unbounded": 12, "bounded": 1}


def chunk_pool(seed: int, kind: str) -> List[np.ndarray]:
    """The distinct address chunks a session of ``kind`` cycles through."""
    rng = _rng(seed, 3, 0 if kind == "unbounded" else 1)
    return [rng.integers(0, _SPACE, size=CHUNK, dtype=np.int64)
            for _ in range(CHUNK_POOL)]


@functools.lru_cache(maxsize=4)
def _chunk_bodies(seed: int, kind: str) -> Tuple[bytes, ...]:
    """The chunk pool as JSON arrays, encoded once per run and kind: a
    closed-loop round opens new sessions, and re-encoding 0.5 MB of
    addresses per session would put client work inside the timing."""
    return tuple(json.dumps(c.tolist(), separators=(",", ":")).encode()
                 for c in chunk_pool(seed, kind))


class StreamSource(Source):
    """One stream session: ``open``, then chunks drawn cyclically from
    the chunk pool, then ``close`` from :meth:`finish`.  A chunk's
    decoded form names its pool index instead of carrying 64K
    addresses."""

    def __init__(self, seed: int, kind: str, stream_id: str) -> None:
        self.kind = kind
        self.stream_id = stream_id
        self._bodies = _chunk_bodies(seed, kind)
        self._next = 0
        self._opened = False

    def _control(self, action: str, **extra: Any) -> Request:
        req = dict(op="stream", action=action, stream_id=self.stream_id,
                   request_id=f"{self.stream_id}-{action}", **extra)
        return req, encode(req)

    def next(self) -> Request:
        if not self._opened:
            self._opened = True
            return self._control("open",
                                 machine=STREAM_MACHINES[self.kind])
        i = self._next
        self._next += 1
        rid = f"{self.stream_id}-{i}"
        meta = {"op": "stream", "action": "chunk",
                "stream_id": self.stream_id, "request_id": rid,
                "chunk": i % CHUNK_POOL}
        # Same bytes as encode() of the full request, without building
        # a 64K-element dict per chunk.
        line = (b'{"action":"chunk","addresses":' + self._bodies[i % CHUNK_POOL]
                + b',"op":"stream","request_id":"' + rid.encode()
                + b'","stream_id":"' + self.stream_id.encode() + b'"}\n')
        return meta, line

    def finish(self) -> List[Request]:
        return [self._control("close")] if self._opened else []


def requests(workload: str, seed: int, stream: int = 0) -> Iterator[Request]:
    """The request sequence of a batched (non-stream) workload."""
    make = {"serve-hot": hot_requests, "serve-cold": cold_requests}[workload]
    return make(seed, stream)
