"""Socket load generator: one thread, one selector, two connections.

NDJSON connections answer in submit order, so each connection keeps a
FIFO of its in-flight requests and pairs every response line with the
oldest one.  The closed loop keeps a fixed number of requests in flight
per connection and sends the next one when a response arrives; the
open loop sends on a fixed schedule, times each request from when it
was *due*, and records how late the generator ran.
"""

from __future__ import annotations

import dataclasses
import json
import selectors
import socket
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from workloads import Request, Source

_RECV_BYTES = 1 << 20


@dataclasses.dataclass
class Record:
    """One request's life: what was asked, when, and the answer."""

    meta: Dict[str, Any]
    t_due: float
    t_sent: float
    t_recv: float = 0.0
    response: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.response is not None \
            and self.response.get("status") == "ok"


@dataclasses.dataclass
class Phase:
    """Every request a phase sent, and its timed window."""

    records: List[Record]
    t_start: float
    t_end: float

    def in_window(self) -> List[Record]:
        """Requests answered inside the timed window."""
        return [r for r in self.records
                if r.response is not None and r.t_recv <= self.t_end]

    @property
    def seconds(self) -> float:
        return self.t_end - self.t_start


class _Conn:
    __slots__ = ("sock", "out", "inbuf", "inflight", "source", "finished")

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.inflight: Deque[Record] = deque()
        self.source: Optional[Source] = None
        self.finished = False


class Client:
    """A load generator bound to one server address.  Phases run one
    after another on the same two connections; use as a context
    manager so the sockets close.

    With ``quickack`` (the default) every received segment is
    acknowledged at once.  The server's sockets keep Nagle's algorithm
    on, so with delayed ACKs a pipelined connection's next answer waits
    for the client's next request to carry the ACK: latency then tracks
    the send interval and jumps between stable states, whatever the
    server computes.  The gated latencies therefore leave that stall
    out by design; ``quickack=False`` measures it for the traced run
    (``frontend.nagle_stall_ms``)."""

    def __init__(self, address: Tuple[str, int], connections: int = 2,
                 timeout_s: float = 120.0, quickack: bool = True) -> None:
        self._conns = [_Conn(address) for _ in range(connections)]
        self._quickack = quickack and hasattr(socket, "TCP_QUICKACK")
        # select(2) takes a microsecond timeout; epoll rounds up to a
        # millisecond, which would make every open-loop send late.
        self._sel = selectors.SelectSelector()
        for conn in self._conns:
            self._sel.register(conn.sock, selectors.EVENT_READ, conn)
        self._timeout_s = timeout_s

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        self._sel.close()
        for conn in self._conns:
            conn.sock.close()

    # -- plumbing ------------------------------------------------------

    def _send(self, conn: _Conn, request: Request, t_due: float,
              records: List[Record]) -> None:
        meta, line = request
        rec = Record(meta, t_due, time.perf_counter())
        conn.inflight.append(rec)
        records.append(rec)
        conn.out += line
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        del conn.out[:sent]
        events = selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        self._sel.modify(conn.sock, events, conn)

    def _read(self, conn: _Conn, now: float) -> List[Record]:
        """Drain the socket; returns the records it completed."""
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("server closed the connection")
        if self._quickack:
            # Linux re-enters delayed-ACK mode on its own; re-arm.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        conn.inbuf += data
        done = []
        while True:
            cut = conn.inbuf.find(b"\n")
            if cut < 0:
                return done
            line = bytes(conn.inbuf[:cut])
            del conn.inbuf[:cut + 1]
            rec = conn.inflight.popleft()
            rec.t_recv = now
            rec.response = json.loads(line)
            done.append(rec)

    def _poll(self, timeout: Optional[float]) -> List[Tuple[_Conn, List[Record]]]:
        events = self._sel.select(timeout)
        now = time.perf_counter()
        out = []
        for key, mask in events:
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                self._flush(conn)
            if mask & selectors.EVENT_READ:
                out.append((conn, self._read(conn, now)))
        return out

    def _finish(self, conns: Sequence[_Conn], records: List[Record]) -> None:
        """Send each source's trailing requests once its connection is
        idle, then wait for every answer."""
        deadline = time.perf_counter() + self._timeout_s
        while True:
            for conn in conns:
                if not conn.inflight and not conn.finished:
                    conn.finished = True
                    assert conn.source is not None
                    now = time.perf_counter()
                    for request in conn.source.finish():
                        self._send(conn, request, now, records)
            if all(c.finished and not c.inflight for c in conns):
                return
            if time.perf_counter() > deadline:
                raise TimeoutError("responses still owed after the phase")
            self._poll(1.0)

    def _bind(self, sources: Sequence[Source]) -> List[_Conn]:
        conns = self._conns[:len(sources)]
        for conn, source in zip(conns, sources):
            conn.source = source
            conn.finished = False
        return conns

    # -- phases --------------------------------------------------------

    def closed_loop(self, sources: Sequence[Source], depth: int,
                    seconds: float) -> Phase:
        """Keep ``depth`` requests in flight on each connection (one per
        source) for ``seconds``, then drain."""
        conns = self._bind(sources)
        records: List[Record] = []
        t_start = time.perf_counter()
        t_end = t_start + seconds
        for conn in conns:
            for _ in range(depth):
                self._send(conn, conn.source.next(), t_start, records)
        while time.perf_counter() < t_end:
            for conn, done in self._poll(t_end - time.perf_counter()):
                now = time.perf_counter()
                if now < t_end:
                    for _ in done:
                        self._send(conn, conn.source.next(), now, records)
        self._finish(conns, records)
        return Phase(records, t_start, t_end)

    def open_loop(self, sources: Sequence[Source], rate: float,
                  seconds: float, max_inflight: int) -> Phase:
        """Send request ``i`` at ``t_start + i / rate`` on connection
        ``i % len(sources)``.  A connection already holding
        ``max_inflight`` requests holds the send back (it goes out late,
        and its latency still counts from the due time)."""
        conns = self._bind(sources)
        records: List[Record] = []
        t_start = time.perf_counter()
        total = int(seconds * rate)
        give_up = t_start + seconds + self._timeout_s
        i = 0
        while i < total:
            due = t_start + i / rate
            conn = conns[i % len(conns)]
            now = time.perf_counter()
            if now >= due and len(conn.inflight) < max_inflight:
                self._send(conn, conn.source.next(), due, records)
                i += 1
                continue
            if now > give_up:
                raise TimeoutError("open loop stalled on a full window")
            self._poll(1.0 if now >= due else due - now)
        self._finish(conns, records)
        return Phase(records, t_start, t_start + seconds)

    def batch(self, source: Source, depth: int, count: int,
              finish: bool = True) -> Phase:
        """Send ``count`` requests with at most ``depth`` in flight, then
        (with ``finish``) the source's trailing requests; the phase ends
        at the last answer.  ``depth=1`` gives round-trip times with
        nothing queued behind other requests."""
        conn = self._bind([source])[0]
        records: List[Record] = []
        t_start = time.perf_counter()
        give_up = t_start + self._timeout_s
        sent = 0
        while sent < count or conn.inflight:
            while sent < count and len(conn.inflight) < depth:
                self._send(conn, source.next(), time.perf_counter(), records)
                sent += 1
            if time.perf_counter() > give_up:
                raise TimeoutError("answers still owed after the timeout")
            self._poll(1.0)
        if finish:
            self._finish([conn], records)
        return Phase(records, t_start, time.perf_counter())
