"""Cross-engine counter parity: every engine, every field.

The compiled :class:`~repro.sim.compile.SimCore` and the vectorized
:class:`~repro.sim.vec.VecCore` are pure performance refactors of
:class:`~repro.sim.network_sim.ReferenceSim`; all engines are
bit-identical *by contract*.  This module turns that contract into a
runtime assertion:

* :func:`stats_signature` -- every :class:`~repro.sim.stats.SimStats`
  field (enumerated via ``dataclasses.fields``, so a new counter can
  never be silently skipped), the per-link flit map, and the per-packet
  created/injected/delivered stamps, all in hashable comparable form.
* :func:`assert_counter_parity` -- run the same workload on every
  engine named in ``engines`` and raise :class:`CounterParityError`
  listing every diverging field.

It runs as a debug-mode check (``fractanet simulate --check-parity``)
and as a CI smoke step; it is also the harness that flushed out the
shard-merge and accepted-load accounting bugs this PR fixes.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.sim.stats import LatencySeries, SimStats

__all__ = [
    "CounterParityError",
    "assert_counter_parity",
    "compare_signatures",
    "stats_signature",
]


class CounterParityError(AssertionError):
    """At least two engines disagreed on at least one counter."""

    def __init__(self, diffs: list[str]) -> None:
        super().__init__(
            f"engines diverged on {len(diffs)} field(s):\n  "
            + "\n  ".join(diffs)
        )
        self.diffs = diffs


def _comparable(value: Any) -> Any:
    """A SimStats field value in order-insensitive, comparable form."""
    if isinstance(value, LatencySeries):
        return tuple(value)
    if isinstance(value, dict):
        return dict(sorted(value.items()))
    if isinstance(value, list):
        return tuple(value)
    return value


def stats_signature(sim) -> dict[str, Any]:
    """Every observable counter of a finished run.

    ``sim`` is anything with ``stats`` and ``packets``: a finished
    simulator or a :class:`~repro.sim.api.RunResult`.

    Enumerates ``dataclasses.fields(SimStats)`` rather than a hand-kept
    list, so any counter added to the stats dataclass is automatically
    part of the parity contract.  Adds the per-packet timestamps on top:
    two runs can agree on every aggregate and still have routed packets
    differently.
    """
    stats = sim.stats
    sig = {
        f.name: _comparable(getattr(stats, f.name))
        for f in dataclasses.fields(SimStats)
    }
    sig["packet_stamps"] = {
        pid: (p.created, p.injected, p.delivered)
        for pid, p in sorted(sim.packets.items())
    }
    return sig


def compare_signatures(
    reference: dict[str, Any],
    compiled: dict[str, Any],
    labels: tuple[str, str] = ("reference", "compiled"),
) -> list[str]:
    """Human-readable field-level diffs (``[]`` means bit-identical)."""
    diffs: list[str] = []
    for name in sorted(set(reference) | set(compiled)):
        a, b = reference.get(name), compiled.get(name)
        if a != b:
            diffs.append(
                f"{name}: {labels[0]}={_brief(a)} {labels[1]}={_brief(b)}"
            )
    return diffs


def _brief(value: Any, limit: int = 140) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def assert_counter_parity(
    net,
    tables,
    traffic_factory: Callable[[], Any],
    config=None,
    *,
    cycles: int = 600,
    drain: bool = True,
    fault_factory: Callable[[], Any] | None = None,
    engines: tuple[str, ...] = ("reference", "compiled"),
) -> dict[str, Any]:
    """Run every engine on identical inputs and demand identical counters.

    ``traffic_factory`` (and ``fault_factory``) are zero-argument
    callables because generators and fault schedules are stateful -- each
    engine must consume a fresh instance built from the same seed.
    ``config``'s ``engine`` field is overridden per run.  Deadlocks are
    recorded, not raised, so deadlocking workloads are compared too.

    ``engines`` lists the engines to compare (the first is the baseline
    the rest diff against); include ``"vectorized"`` only for workloads
    it supports (see :func:`repro.sim.vec.vec_blockers`).

    Returns the (identical) signature on success; raises
    :class:`CounterParityError` on any divergence.
    """
    from repro.sim.api import make_sim
    from repro.sim.engine import SimConfig

    if len(engines) < 2:
        raise ValueError("need at least two engines to compare")
    config = config or SimConfig()
    signatures: dict[str, dict[str, Any]] = {}
    for engine in engines:
        run_config = dataclasses.replace(
            config, engine=engine, raise_on_deadlock=False
        )
        sim = make_sim(
            net,
            tables,
            traffic_factory(),
            run_config,
            fault=fault_factory() if fault_factory is not None else None,
        )
        sim.run(cycles, drain=drain)
        sim.finalize()
        signatures[engine] = stats_signature(sim)
    base = engines[0]
    diffs: list[str] = []
    for other in engines[1:]:
        diffs.extend(
            compare_signatures(
                signatures[base], signatures[other], labels=(base, other)
            )
        )
    if diffs:
        raise CounterParityError(diffs)
    return signatures[engines[-1]]
