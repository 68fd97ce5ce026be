"""Report collector and shared timing helper for the experiment benches.

pytest captures stdout, so tables printed inside bench tests would be
invisible in the default ``pytest benchmarks/ --benchmark-only`` run.
Benches call :func:`echo` instead of ``print``; the collected blocks
are re-emitted by the ``pytest_terminal_summary`` hook in conftest so
every reproduced table/figure appears at the end of the run (and in
``bench_output.txt``).  Benches that race two implementations time
them with :func:`best_of_interleaved`.
"""

import gc
import time


_LINES: list[str] = []


def echo(*parts: object) -> None:
    """Print-alike that also records the line for the summary."""
    line = " ".join(str(p) for p in parts)
    _LINES.append(line)
    print(line)


def drain() -> list[str]:
    return list(_LINES)


def best_of_interleaved(fns, repeats):
    """Best-of timing with the candidates interleaved per round, so a
    quiet window on a shared box benefits each of them equally.  The
    cyclic garbage collector is paused while a candidate runs (as
    ``timeit`` does): its passes scale with everything the process
    holds, not with the kernel being timed."""
    bests = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                results[i] = fn()
                bests[i] = min(bests[i], time.perf_counter() - start)
            finally:
                gc.enable()
    return bests, results
