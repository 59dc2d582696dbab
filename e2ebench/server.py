"""The server under test: ``python -m repro.serving --http`` in its own
process, read from outside only.

Each launch gets a private ``REPRO_CACHE_DIR`` and ``--no-disk-cache``,
so no answer can come from an earlier run's memo.  The server is
stopped the way its CLI documents (SIGINT: stop accepting, drain,
exit), and afterwards the launch is checked for leaks: every process
of its tree must be gone and every ``repro_shm_*`` segment it created
unlinked.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from workloads import SETUP_PROBE, encode

_SHM_DIR = Path("/dev/shm")
_SHM_PREFIX = "repro_shm_"
_BANNER = re.compile(r"serving on http://([0-9.]+):(\d+)")
_START_TIMEOUT_S = 90.0
_STOP_TIMEOUT_S = 30.0


def _shm_segments() -> Set[str]:
    if not _SHM_DIR.is_dir():
        return set()
    return {p.name for p in _SHM_DIR.iterdir()
            if p.name.startswith(_SHM_PREFIX)}


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = sorted(os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return out
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        out.extend(int(c) for c in text.split())
    return out


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _restore_sigint() -> None:
    # A benchmark launched in the background may inherit an ignored
    # SIGINT, and Python then never installs its KeyboardInterrupt
    # handler — which is how the serving CLI drains and exits.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServerProcess:
    """One launch of the serving CLI on a free local port."""

    def __init__(self, root: Path, run_dir: Path) -> None:
        self.root = root
        self.run_dir = run_dir
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.proc: Optional[subprocess.Popen] = None
        self._tree: Set[int] = set()
        self._shm_before: Set[str] = set()
        self._log = run_dir / "server.log"

    def start(self) -> float:
        """Launch and wait for the first ``ok``; returns the set-up time
        in seconds (process start, imports, worker forks, bind, first
        answer)."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
            if env.get("PYTHONPATH") else src
        env["REPRO_CACHE_DIR"] = str(self.run_dir / "cache")
        cmd = [sys.executable, "-m", "repro.serving", "--http", "0",
               "--no-disk-cache"]
        self._shm_before = _shm_segments()
        t0 = time.perf_counter()
        with open(self._log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True, preexec_fn=_restore_sigint,
            )
        self.address = self._wait_for_banner(t0)
        with socket.create_connection(self.address) as sock:
            sock.sendall(encode(SETUP_PROBE))
            reply = _read_line(sock)
        elapsed = time.perf_counter() - t0
        if json.loads(reply).get("status") != "ok":
            raise RuntimeError(f"set-up probe failed: {reply!r}")
        return elapsed

    def _wait_for_banner(self, t0: float) -> Tuple[str, int]:
        assert self.proc is not None
        while time.perf_counter() - t0 < _START_TIMEOUT_S:
            match = _BANNER.search(self._log.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(
            "server did not start:\n" + self._log.read_text(errors="replace")
        )

    def http_get(self, path: str) -> Any:
        """GET ``path`` and decode the JSON body."""
        with socket.create_connection(self.address) as sock:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
                         .encode())
            chunks = []
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    break
                chunks.append(data)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 200"):
            raise RuntimeError(f"GET {path}: {head[:80]!r}")
        return json.loads(body)

    def process_tree(self) -> List[int]:
        """The server's pid and every live descendant."""
        assert self.proc is not None
        tree, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo.extend(_children(pid))
        self._tree.update(tree)
        return tree

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) summed over the server's processes."""
        return sum(_vm_hwm_kb(pid) for pid in self.process_tree()) / 1024.0

    def stop(self) -> Dict[str, Any]:
        """Drain-and-exit via SIGINT, then check the launch left nothing
        behind.  Returns the exit status and the leaked pids and
        segments."""
        assert self.proc is not None
        self.process_tree()
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        deadline = time.perf_counter() + 5.0
        leaked = sorted(p for p in self._tree if _alive(p))
        while leaked and time.perf_counter() < deadline:
            time.sleep(0.02)
            leaked = sorted(p for p in self._tree if _alive(p))
        shm = sorted(_shm_segments() - self._shm_before)
        if leaked:
            self.kill()
        return {"exit_code": code, "leaked_pids": leaked,
                "leaked_shm": shm}

    def kill_if_running(self) -> None:
        """Kill the launch unless :meth:`stop` already ended it."""
        if self.proc is not None and self.proc.poll() is None:
            self.kill()

    def kill(self) -> None:
        """Last resort: SIGKILL the whole session and reap the leader."""
        if self.proc is None:
            return
        for pid in sorted(self._tree | {self.proc.pid}):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        self.proc.wait()


def _read_line(sock: socket.socket) -> bytes:
    buf = b""
    while not buf.endswith(b"\n"):
        data = sock.recv(1 << 16)
        if not data:
            raise RuntimeError("server closed before answering")
        buf += data
    return buf
