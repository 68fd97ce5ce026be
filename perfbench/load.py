"""Open- and closed-loop HTTP load against ``repro serve``.

Requests are pre-generated from the seed, each with the outputs the
stored winner gives under ``AIG.simulate`` (the bit-exactness oracle).
In the open loop a request is *due* at ``start + i / rate``; a fixed
number of keep-alive connections send the due requests in order, so
when every connection is busy a due request waits.  Latency is
measured from the due time, which charges that wait to the request;
*lateness* (send time minus due time) is reported separately.  In the
closed loop every request is due at once, so each connection sends its
next request as soon as the previous one is answered.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class Request:
    model: str
    body: bytes
    expected: np.ndarray  # (rows, outputs) uint8


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    ok: bool  # status 200 and every output bit as expected

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


@dataclass
class StepResult:
    start: float
    outcomes: list[Outcome] = field(default_factory=list)


def rows_body(rows: np.ndarray) -> bytes:
    """``{"rows": [[0,1,...], ...]}`` for a 0/1 matrix, built in numpy."""
    n_rows, width = rows.shape
    text = np.full((n_rows, 2 * width + 2), ord(","), dtype=np.uint8)
    text[:, 0] = ord("[")
    text[:, 1:2 * width:2] = rows + ord("0")
    text[:, 2 * width] = ord("]")
    return b'{"rows":[' + text.tobytes()[:-1] + b"]}"


def make_requests(models: dict[str, Any], count: int,
                  rng: np.random.Generator) -> list[Request]:
    """``count`` requests over ``{name: AIG}``: every 20th carries 1024
    rows (5%) and the rest 1-16, each size class cycling through the
    models.  The seed draws the model order, the small sizes and the
    bits, so every run has the same mix of cheap and costly requests."""
    names = sorted(models)
    big = np.arange(count) % 20 == 19
    sizes = np.where(big, 1024, rng.integers(1, 17, size=count))
    picks = np.empty(count, dtype=np.int64)
    for mask in (big, ~big):
        # Each run of len(names) consecutive requests of a size class
        # covers every model once, so any prefix of the list is balanced.
        blocks = -(-int(mask.sum()) // len(names))
        cycle = np.concatenate([rng.permutation(len(names))
                                for _ in range(blocks)])
        picks[mask] = cycle[:mask.sum()]
    requests: list[Request | None] = [None] * count
    for m, name in enumerate(names):
        aig = models[name]
        mine = np.flatnonzero(picks == m)
        if not mine.size:
            continue
        rows = rng.integers(0, 2, size=(int(sizes[mine].sum()), aig.n_inputs),
                            dtype=np.uint8)
        expected = aig.simulate(rows)
        bounds = np.cumsum(sizes[mine])[:-1]
        for i, block, out in zip(mine, np.split(rows, bounds),
                                 np.split(expected, bounds), strict=True):
            requests[i] = Request(name, rows_body(block), out)
    return requests  # type: ignore[return-value]


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def _run_step(host: str, port: int, requests: list[Request],
                    rate: float | None, seconds: float | None,
                    connections: int) -> StepResult:
    start = time.perf_counter() + 0.01
    result = StepResult(start)
    next_index = 0
    stop = start + seconds if seconds is not None else float("inf")

    async def connection() -> None:
        nonlocal next_index
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while next_index < len(requests) and time.perf_counter() < stop:
                index = next_index
                next_index += 1
                req = requests[index]
                due = start + index / rate if rate else start
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = time.perf_counter()
                writer.write(
                    f"POST /predict/{req.model} HTTP/1.1\r\n"
                    f"Host: {host}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(req.body)}\r\n\r\n".encode("ascii")
                    + req.body)
                await writer.drain()
                status, payload = await _read_response(reader)
                done = time.perf_counter()
                ok = status == 200 and np.array_equal(
                    json.loads(payload)["outputs"], req.expected)
                result.outcomes.append(Outcome(due, sent, done, ok))
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(connection() for _ in range(connections)))
    result.outcomes.sort(key=lambda o: o.due)
    return result


def run_open(host: str, port: int, requests: list[Request], rate: float,
             connections: int) -> StepResult:
    """Send every request open-loop, due at ``rate`` per second."""
    return asyncio.run(
        _run_step(host, port, requests, rate, None, connections))


def run_closed(host: str, port: int, requests: list[Request],
               seconds: float, connections: int) -> StepResult:
    """Keep every connection busy for ``seconds``: each sends its next
    request as soon as the previous one is answered."""
    return asyncio.run(
        _run_step(host, port, requests, None, seconds, connections))


def throughput(steps: list[StepResult]) -> float:
    """Median, over half-second slices of the steps, of requests
    answered correctly per second (a stall in one slice does not move
    it)."""
    window = 0.5
    counts = []
    for step in steps:
        end = max(o.done for o in step.outcomes)
        slots = np.zeros(max(1, int((end - step.start) // window)))
        for o in step.outcomes:
            slot = int((o.done - step.start) // window)
            if o.ok and slot < slots.size:
                slots[slot] += 1
        counts.extend(slots)
    return float(np.median(counts)) / window


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]
