"""Process fan-out with deterministic per-task seeding.

Every latency curve, recovery curve and experiment grid decomposes into
independent simulation tasks (one per offered rate, per topology, per
failure count...).  :class:`SweepRunner` fans those tasks over a
:class:`concurrent.futures.ProcessPoolExecutor` and guarantees the results
are **bit-identical to a serial run**:

* each task carries its own RNG seed, derived with :func:`derive_seed`
  from the base seed and the task's identity (never from its submission
  order or worker assignment);
* tasks share nothing at runtime -- networks and routing tables travel
  by value, once per task however many of its specs share them;
* results are returned in submission order regardless of completion order.

``jobs=1`` runs the exact same task functions in-process, so "serial" is
literally the degenerate case of "parallel" and the determinism tests in
``tests/sim/test_parallel_determinism.py`` hold by construction *and* by
measurement.  The runner knows nothing about simulation beyond
:meth:`SweepRunner.execute_batch`; the curves themselves live in
:mod:`repro.sim.sweep`.

Each task also reports its own wall-clock time; :class:`SweepStats`
aggregates them so the speedup of a parallel run is observable
(``fractanet run all --jobs 4`` prints the summary).
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "SweepRunner",
    "SweepStats",
    "TaskTiming",
    "derive_seed",
]


def derive_seed(base_seed: int, *parts: Any) -> int:
    """Derive a 63-bit task seed from a base seed and the task's identity.

    The derivation is a sha256 over the base seed and the ``repr`` of each
    identity part, so it is stable across processes, Python versions and
    submission orders -- the cornerstone of serial/parallel bit-equality.
    Distinct identities give independent streams, which also decorrelates
    the points of a sweep (a shared seed would give every offered rate the
    same Bernoulli coin flips).
    """
    h = hashlib.sha256()
    h.update(repr(int(base_seed)).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(repr(part).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock accounting for one task."""

    label: str
    seconds: float
    pid: int


@dataclass
class SweepStats:
    """Aggregated per-task timings of everything a runner executed.

    ``task_seconds`` is the serial-equivalent cost (sum of per-task times);
    ``wall_seconds`` is what actually elapsed; their ratio is the observed
    speedup.
    """

    jobs: int = 1
    wall_seconds: float = 0.0
    timings: list[TaskTiming] = field(default_factory=list)

    @property
    def task_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    @property
    def speedup(self) -> float:
        return self.task_seconds / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def workers_used(self) -> int:
        return len({t.pid for t in self.timings})

    def summary(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "tasks": len(self.timings),
            "workers_used": self.workers_used,
            "task_seconds": round(self.task_seconds, 3),
            "wall_seconds": round(self.wall_seconds, 3),
            "speedup": round(self.speedup, 2),
        }

    def report(self, per_task: bool = False) -> str:
        lines = []
        if per_task:
            for t in sorted(self.timings, key=lambda t: -t.seconds):
                lines.append(f"  {t.seconds:8.3f}s  pid {t.pid}  {t.label}")
        lines.append(
            f"runner: {len(self.timings)} tasks on {self.workers_used} worker(s) "
            f"(jobs={self.jobs}); {self.task_seconds:.2f}s task time in "
            f"{self.wall_seconds:.2f}s wall -> speedup {self.speedup:.2f}x"
        )
        return "\n".join(lines)


def _timed_call(job: tuple[Callable[[Any], Any], Any, str]) -> tuple[Any, TaskTiming]:
    """Run one task and clock it inside the worker that executed it."""
    fn, item, label = job
    start = time.perf_counter()
    result = fn(item)
    return result, TaskTiming(label, time.perf_counter() - start, os.getpid())


class SweepRunner:
    """Fans independent simulation tasks over a process pool.

    ``jobs=1`` executes in-process (no pool, no pickling) but through the
    identical task functions and seed derivation, so its results are the
    reference the parallel path is tested against.
    """

    def __init__(self, jobs: int = 1) -> None:
        # Assigned before validation: __del__ -> close() runs even when
        # the constructor raises on a bad jobs value.
        self._pool: ProcessPoolExecutor | None = None
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.stats = SweepStats(jobs=jobs)

    def _executor(self) -> ProcessPoolExecutor:
        # One pool for the runner's lifetime: workers stay warm, so
        # per-process memos (the routing-table cache) carry
        # over between map() calls instead of being re-derived per call.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        labels: Sequence[str] | None = None,
    ) -> list[Any]:
        """Apply a module-level callable to every item, in order.

        Results come back in submission order; per-task timings accumulate
        on :attr:`stats`.  ``fn`` and each item must be picklable when
        ``jobs > 1``.
        """
        items = list(items)
        if labels is None:
            name = getattr(fn, "__name__", str(fn))
            labels = [f"{name}[{i}]" for i in range(len(items))]
        jobs_ = list(zip([fn] * len(items), items, labels))
        start = time.perf_counter()
        if self.jobs == 1 or len(items) <= 1:
            pairs = [_timed_call(j) for j in jobs_]
        else:
            pairs = list(self._executor().map(_timed_call, jobs_))
        self.stats.wall_seconds += time.perf_counter() - start
        self.stats.timings.extend(t for _, t in pairs)
        return [r for r, _ in pairs]

    def execute_batch(self, specs: Sequence[Any]) -> list[Any]:
        """:func:`repro.sim.api.execute_batch` over the pool.

        One task per :func:`repro.sim.api.batch_groups` group, at every
        ``jobs`` value: a vectorized batch stays one kernel wherever it
        runs, and specs that run alone spread over the workers.  Results
        come back in input order and are bit-identical to a serial run.
        Pass this method as ``run_batch`` to
        :func:`repro.sim.sweep.curve_points`.
        """
        from repro.sim.api import execute_batch

        def map_groups(fn: Callable[[Any], Any], groups: list[list[Any]]) -> list[Any]:
            labels = [f"{g[0].network[0].name} x{len(g)}" for g in groups]
            return self.map(fn, groups, labels)

        return execute_batch(specs, map_groups)
