"""Simulation configuration, recovery policies, and the deadlock exception."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DeadlockDetected",
    "RetryPolicy",
    "ReroutePolicy",
    "SimConfig",
]

#: The names ``SimConfig.engine`` accepts; :func:`repro.sim.api.preferred_engine`
#: resolves ``"auto"`` to one of the other three.
_ENGINES = ("auto", "reference", "compiled", "vectorized")


class DeadlockDetected(Exception):
    """Raised (when configured) once the wait-for graph closes a cycle.

    Attributes:
        cycle: the channels on the deadlock cycle.
        packets: the packet ids holding them.
        at_cycle: simulation time of detection.
    """

    def __init__(self, cycle: list[str], packets: list, at_cycle: int) -> None:
        super().__init__(
            f"wormhole deadlock at cycle {at_cycle}: "
            f"{len(cycle)} channels in a wait cycle ({' -> '.join(cycle[:6])}...)"
        )
        self.cycle = cycle
        self.packets = packets
        self.at_cycle = at_cycle


@dataclass(frozen=True)
class RetryPolicy:
    """NIC send-side timeout/retry (the paper's §2.0 recovery discussion).

    A packet that has not completed ``timeout`` cycles after its injection
    started is presumed lost: its worm is removed from the network (so
    later traffic cannot deadlock behind dead flits) and the packet is
    re-queued at its source.  Each successive attempt multiplies the
    timeout by ``backoff`` (exponential backoff); after ``max_retries``
    re-transmissions the packet is dropped -- or failed over to the second
    fabric when one is configured.

    Attributes:
        timeout: cycles from injection start to the first timeout.
        backoff: multiplier applied to the timeout per retry (>= 1).
        max_retries: re-transmission budget per packet (0 = detect & drop).
        resend_delay: cycles between killing the worm and re-queueing the
            packet (models the NIC's retransmission turnaround).
    """

    timeout: int = 64
    backoff: float = 2.0
    max_retries: int = 3
    resend_delay: int = 1

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise ValueError("retry timeout must be >= 1 cycle")
        if self.backoff < 1.0:
            raise ValueError("retry backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.resend_delay < 1:
            raise ValueError("resend_delay must be >= 1 cycle")

    def timeout_for_attempt(self, attempt: int) -> int:
        """Timeout of the ``attempt``-th transmission (0 = first send)."""
        return max(1, int(self.timeout * self.backoff**attempt))


@dataclass(frozen=True)
class ReroutePolicy:
    """Online re-routing around failed links.

    Every fault-schedule transition is detected ``detection_delay`` cycles
    after it happens (modelling timeout-driven fault detection); a new
    deadlock-free routing table is then compiled with the down links
    disabled, certified by the channel-order check, and atomically
    swapped in after a further ``reconvergence_delay`` cycles (modelling
    table distribution to every router).  See :func:`repro.sim.recovery.recompute_recovery_tables` for
    the algorithm ladder and :class:`repro.sim.recovery.RecoveryManager`
    for the runtime wiring.

    Attributes:
        detection_delay: cycles from a link state change to its detection.
        reconvergence_delay: cycles from detection to the table swap.
        require_certified: swap only tables that pass the CDG acyclicity
            and deliverability checks (a failed recompute is recorded but
            the old tables stay in place).
    """

    detection_delay: int = 32
    reconvergence_delay: int = 64
    require_certified: bool = True

    def __post_init__(self) -> None:
        if self.detection_delay < 0:
            raise ValueError("detection_delay must be >= 0")
        if self.reconvergence_delay < 0:
            raise ValueError("reconvergence_delay must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the wormhole simulator.

    Attributes:
        buffer_depth: input FIFO capacity in flits per (channel, VC) --
            ServerNet routers have small per-port FIFOs, which is why worms
            span many routers and deadlock matters.
        switching: ``"wormhole"`` (the head routes before the tail arrives,
            §2.0) or ``"store_and_forward"`` (a packet must be fully
            buffered at each hop before moving on; needs ``buffer_depth``
            >= packet size and multiplies latency by the hop count).
        router_delay: extra cycles each flit spends inside a router's
            pipeline before appearing in the next input FIFO (0 = the
            idealized single-cycle router; real ASICs pay several
            byte-times per hop, which is why the paper counts "router
            delays").
        vc_count: virtual channels per physical channel (1 = plain
            ServerNet; >1 models the Dally & Seitz scheme the paper rejects
            for its buffer cost).
        stall_threshold: cycles without any flit movement (while packets
            are in flight) before running deadlock detection.
        deadlock_check_interval: additionally scan for wait-for cycles
            among *blocked* channels every this many cycles, so a local
            deadlock is caught even while unrelated traffic still moves
            (a wait cycle among wormhole-held channels can never resolve).
        raise_on_deadlock: raise :class:`DeadlockDetected` (True) or record
            it in the stats and stop (False).
        retry: NIC send-side timeout/retry policy, or None to disable
            recovery retransmission (the pre-recovery behaviour).
        reroute: online re-routing policy, or None for static tables.
        engine: which step kernel executes the simulation; one of
            ``"auto"`` (default), ``"reference"`` (the string-keyed
            interpreter), ``"compiled"`` (the integer-indexed core) or
            ``"vectorized"`` (the batched numpy core).  ``"auto"`` lets
            :func:`repro.sim.api.preferred_engine` pick: the reference
            interpreter for features only it models, the vectorized core
            for a batch or for a single array-expressible run (a
            ``UniformPlan``, no blockers) wide or busy enough to clear the
            calibrated cost-model crossover, the compiled core otherwise.
            A forced engine that cannot run the spec raises ``ValueError``
            naming what it lacks.  All engines are bit-identical on the
            configurations they share.  Unknown names are rejected at
            construction.
    """

    buffer_depth: int = 4
    vc_count: int = 1
    switching: str = "wormhole"  # or "store_and_forward"
    router_delay: int = 0
    stall_threshold: int = 64
    deadlock_check_interval: int = 16
    raise_on_deadlock: bool = True
    retry: RetryPolicy | None = None
    reroute: ReroutePolicy | None = None
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; engines: " + ", ".join(_ENGINES)
            )
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.vc_count < 1:
            raise ValueError("vc_count must be >= 1")
        if self.stall_threshold < 1:
            raise ValueError("stall_threshold must be >= 1")
        if self.deadlock_check_interval < 1:
            raise ValueError("deadlock_check_interval must be >= 1")
        if self.switching not in ("wormhole", "store_and_forward"):
            raise ValueError(f"unknown switching mode {self.switching!r}")
        if self.router_delay < 0:
            raise ValueError("router_delay must be >= 0")
