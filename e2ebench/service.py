"""``repro serve`` as a child process, and the closed-loop HTTP client.

The service runs in its default configuration (one pool worker, result
cache on) with a fresh cache directory per start, on 127.0.0.1 and a port
the OS picks.  The load is a closed loop: two client threads in this
process, each sending its next request only after the previous reply.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

__all__ = ["Reply", "Service", "parse_metrics", "run_load"]

_READY = re.compile(r"repro serve: http://127\.0\.0\.1:(\d+) ")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Service:
    """One ``python -m repro serve`` child; ``start()`` returns once ready."""

    def __init__(self, src_dir: str, cache_dir: str, trace_path: str | None = None):
        self.src_dir = src_dir
        self.cache_dir = cache_dir
        self.trace_path = trace_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Start and wait for the ready line; returns the start-up seconds."""
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_TRACE", None)
        if self.trace_path:
            env["REPRO_TRACE"] = self.trace_path
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--cache-dir", self.cache_dir],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
            start_new_session=True,
        )
        deadline = t0 + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            m = _READY.match(line)
            if m:
                self.port = int(m.group(1))
                return time.perf_counter() - t0
        self.stop()
        raise RuntimeError("repro serve did not report ready")

    def stop(self) -> None:
        """Drain with SIGTERM, wait, and reap anything left in its group.

        ``repro serve`` prints its ready line before it installs its SIGTERM
        handler, so a signal sent at once can kill it undrained and orphan
        its pool worker.  One answered ``/healthz`` proves the event loop has
        run past that point.  The service runs in its own session, so any
        process of its group still alive after it exits is killed and
        waited for.
        """
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.poll() is None:
            deadline = time.perf_counter() + START_TIMEOUT_S
            while self.port and self.proc.poll() is None and time.perf_counter() < deadline:
                try:
                    self.get("/healthz")
                    break
                except (OSError, http.client.HTTPException):
                    time.sleep(0.05)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while True:
            try:
                os.killpg(pgid, signal.SIGKILL if time.perf_counter() > deadline else 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text exposition -> ``{flat_name: value}``."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        out[name] = float(value)
    return out


class Reply:
    """One request's outcome as the client saw it."""

    __slots__ = ("spec", "first", "latency", "status", "payload", "error")

    def __init__(self, spec: int, first: bool) -> None:
        self.spec = spec
        self.first = first
        self.latency = 0.0
        self.status = 0
        self.payload: dict | None = None
        self.error = ""


def _post(port: int, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", "/solve", body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def run_load(port: int, bodies: list[bytes], order: list[int], block_len: int,
             min_blocks: int, seconds: float, clients: int = 2):
    """Send whole blocks of ``order`` until ``min_blocks`` are done and
    ``seconds`` have passed; returns ``(replies, wall seconds)``.

    ``order`` holds spec indices; a spec's first position in ``order`` is
    its first-time request.  The clients share one cursor, so together they
    send the sequence in order with at most ``clients`` requests in flight.
    """
    seen: set[int] = set()
    replies: list[Reply] = []
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter()

    def next_index() -> int | None:
        with lock:
            i = cursor[0]
            if i % block_len == 0:
                done = i // block_len
                if i >= len(order) or (
                    done >= min_blocks and time.perf_counter() - t0 >= seconds
                ):
                    return None
            cursor[0] = i + 1
            spec = order[i]
            reply = Reply(spec, spec not in seen)
            seen.add(spec)
            replies.append(reply)
            return len(replies) - 1

    def client() -> None:
        while True:
            k = next_index()
            if k is None:
                return
            reply = replies[k]
            t = time.perf_counter()
            try:
                reply.status, reply.payload = _post(port, bodies[reply.spec])
            except (OSError, ValueError, http.client.HTTPException) as exc:
                reply.error = f"{type(exc).__name__}: {exc}"
            reply.latency = time.perf_counter() - t

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return replies, time.perf_counter() - t0
