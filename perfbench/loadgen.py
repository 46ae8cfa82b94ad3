"""Asyncio HTTP/1.1 load generator.

Runs in the benchmark's process over a few keep-alive connections to
a server in another process.

* :func:`open_loop` sends request ``i`` at ``start + i / rate``
  whatever the server does, pipelining on its connection
  (``i % connections``), and times it from that scheduled instant, so
  a stall shows up in every request queued behind it.
* :func:`closed_loop` keeps one request in flight per connection and
  times it from its send.

Each response goes through a caller-supplied ``check(index, status,
body)`` that returns the number of verified rows (0 = failed); a
request never answered (connection refused or dropped, timeout) is a
failure too.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

Check = Callable[[int, int, bytes], int]


def http_request(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


async def read_response(reader: asyncio.StreamReader):
    """``(status, body)`` of one response on a keep-alive stream."""
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


@dataclass
class LoadResult:
    """Per-request timings; ``done[i]`` is ``None`` if never answered."""

    start: List[float]
    sent: List[Optional[float]]
    done: List[Optional[float]]
    rows: List[int]
    attempted: int
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for i in range(self.attempted) if self.rows[i] == 0)

    def latencies(self) -> List[float]:
        """Seconds from each answered request's start (scheduled send in
        the open loop, send in the closed loop) to its response;
        failures are left out."""
        return [self.done[i] - self.start[i]
                for i in range(self.attempted) if self.rows[i]]

    def lateness(self) -> List[float]:
        """Seconds each sent request left after its scheduled time."""
        return [self.sent[i] - self.start[i]
                for i in range(self.attempted) if self.sent[i] is not None]

    def span(self) -> float:
        """First start to last response."""
        ends = [d for d in self.done[:self.attempted] if d is not None]
        return max(ends) - min(self.start[:self.attempted])


async def _connect(host: str, port: int, n: int):
    return [await asyncio.open_connection(host, port) for _ in range(n)]


async def _close(conns) -> None:
    for _, writer in conns:
        writer.close()
    for _, writer in conns:
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _open_loop(host, port, requests, rate, connections, check,
                     timeout):
    n = len(requests)
    result = LoadResult(start=[0.0] * n, sent=[None] * n, done=[None] * n,
                        rows=[0] * n, attempted=n)
    try:
        conns = await _connect(host, port, connections)
    except OSError as exc:
        result.errors.append(f"connect: {exc}")
        return result
    t0 = time.perf_counter() + 0.02
    for i in range(n):
        result.start[i] = t0 + i / rate

    async def sender(c: int) -> None:
        writer = conns[c][1]
        for i in range(c, n, connections):
            delay = result.start[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(requests[i])
            result.sent[i] = time.perf_counter()
            await writer.drain()

    async def receiver(c: int) -> None:
        reader = conns[c][0]
        for i in range(c, n, connections):
            status, body = await read_response(reader)
            result.done[i] = time.perf_counter()
            result.rows[i] = check(i, status, body)

    tasks = [asyncio.ensure_future(coro(c)) for c in range(connections)
             for coro in (sender, receiver)]
    deadline = (n / rate) + timeout
    done, pending = await asyncio.wait(tasks, timeout=deadline)
    for task in pending:
        task.cancel()
        result.errors.append("timeout")
    for task in done:
        if task.exception() is not None:
            result.errors.append(repr(task.exception()))
    await asyncio.gather(*pending, return_exceptions=True)
    await _close(conns)
    return result


async def _closed_loop(host, port, requests, duration, connections, check):
    n = len(requests)
    result = LoadResult(start=[0.0] * n, sent=[None] * n, done=[None] * n,
                        rows=[0] * n, attempted=0)
    try:
        conns = await _connect(host, port, connections)
    except OSError as exc:
        result.errors.append(f"connect: {exc}")
        return result
    deadline = time.perf_counter() + duration
    cursor = iter(range(n))

    async def worker(c: int) -> None:
        reader, writer = conns[c]
        # The shared cursor hands out indices in order and every worker
        # checks the deadline right after taking one, so no index below
        # ``attempted`` is skipped.
        for i in cursor:
            if time.perf_counter() >= deadline:
                return
            result.attempted = max(result.attempted, i + 1)
            result.start[i] = result.sent[i] = time.perf_counter()
            writer.write(requests[i])
            status, body = await read_response(reader)
            result.done[i] = time.perf_counter()
            result.rows[i] = check(i, status, body)

    tasks = [asyncio.ensure_future(worker(c)) for c in range(connections)]
    done, pending = await asyncio.wait(tasks, timeout=duration + 30.0)
    for task in pending:
        task.cancel()
        result.errors.append("timeout")
    for task in done:
        if task.exception() is not None:
            result.errors.append(repr(task.exception()))
    await asyncio.gather(*pending, return_exceptions=True)
    await _close(conns)
    return result


def open_loop(host: str, port: int, requests: Sequence[bytes], rate: float,
              *, check: Check, connections: int = 2,
              timeout: float = 30.0) -> LoadResult:
    """Send every request on a fixed-rate schedule."""
    return asyncio.run(_open_loop(host, port, requests, rate, connections,
                                  check, timeout))


def closed_loop(host: str, port: int, requests: Sequence[bytes],
                duration: float, *, check: Check,
                connections: int = 2) -> LoadResult:
    """Send back to back for ``duration`` seconds (or until the
    requests run out)."""
    return asyncio.run(_closed_loop(host, port, requests, duration,
                                    connections, check))
