"""Counter-based seed derivation and the one seeded replication runner.

Every stochastic task derives its generator from (root seed, integer key
path) through splitmix64 folding, so results are independent of worker
count and scheduling order: task (seed, k1, k2, ...) always sees the same
stream.  ``replicate`` runs ``reps`` replications per grid entry, each on the
stream (seed, tag, grid index, rep), and records each one's outcome under one
failure rule; every simulated curve and the functional probe go through it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["derive_seed", "derive_rng", "map_tasks", "replicate"]

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Fold integer keys into the root seed; stable across runs and workers."""
    state = _splitmix64(int(seed) & _MASK)
    for key in keys:
        state = _splitmix64(state ^ (int(key) & _MASK))
    return state


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Philox generator keyed by the derived stream id (counter-based)."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *keys)))


def map_tasks(tasks, worker, threads: int) -> list:
    """``[worker(t) for t in tasks]`` in task order, on ``threads`` threads when > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, tasks))
    return [worker(task) for task in tasks]


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _outcome(call, *args) -> tuple:
    """``(call(*args), None)``, or ``(nan, error)`` when it raises or returns a value that is not all finite."""
    try:
        value = call(*args)
    except Exception as exc:  # record-and-continue
        return math.nan, _error(exc)
    return (value, None) if np.all(np.isfinite(value)) else (math.nan, f"non-finite value {value!r}")


def replicate(seed: int, tag: int, grid, reps: int, task, threads: int) -> list[list[tuple]]:
    """One list per grid entry x = grid[i] of the ``_outcome`` pairs of ``task(x, derive_rng(seed, tag, i, rep))``, rep < reps.

    The jobs run through ``map_tasks``, so the result does not depend on ``threads``.
    """

    def run(job):
        i, x, rep = job
        return _outcome(task, x, derive_rng(seed, tag, i, rep))

    jobs = [(i, x, rep) for i, x in enumerate(grid) for rep in range(reps)]
    results = map_tasks(jobs, run, threads)
    return [results[i * reps : (i + 1) * reps] for i in range(len(grid))]
