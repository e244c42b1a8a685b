"""Batched struct-of-arrays simulation core: whole sweeps in one kernel.

:class:`~repro.sim.compile.SimCore` (PR 3) interns strings to dense ints
but still steps flits one at a time through Python bytecode.  This module
rewrites the five phase kernels -- inject, route, allocate, traverse,
eject -- as numpy array operations over flat per-channel state, and adds a
**batch dimension**: ``B`` independent (traffic, seed) replicas of one
:class:`~repro.sim.compile.CompiledNet` advance together in a single
kernel pass per cycle.  A whole latency curve or saturation bisection
becomes one batched run instead of N processes, which is how
routing-engine evaluations at Dragonfly/HyperX scale amortize the
per-cycle interpreter cost.  The batch dimension is not the only
amortizing width: a single large fabric (``B=1``, channels in the
thousands) clears the same fixed kernel-dispatch cost through active-set
stepping (below), which is why the width-aware ``auto`` engine decision
(:func:`repro.sim.api.preferred_engine`) routes lone depth-3/4
fractahedrons here.

Active sets
-----------

At sub-saturation loads most channels are idle, so each phase kernel
gathers/scatters over the *active* state instead of the full ``(B*C,)``
width.  Two disciplines, picked by width at construction (scan while
``B * C <= ACTIVE_SCAN_MAX``, index above):

* *scan* (small widths): occupied channels and armed sources are
  re-derived each cycle by full-width boolean scans -- linear ~1
  byte/element passes that cost less than maintaining anything;
* *index* (large widths): compressed index arrays (``occupied
  channels``, ``armed sources``) are maintained incrementally -- a
  sorted merge of freshly occupied channels, a mask-compress of drained
  ones -- so per-cycle cost scales with occupancy, not network size.

Both are bit-identical to the reference interpreter, replica by replica
(the active-set property test pins each mode by patching
:data:`ACTIVE_SCAN_MAX`).
An empty active set (equivalently, zero backlog and no in-flight packets
in scan mode) fast-forwards the run loop to the next admission cycle, the
same idle-cycle shortcut ``SimCore`` has.

Layout
------

All mutable state is struct-of-arrays over ``(replica, channel)``:

* ``fifo``: ``(B*C, depth)`` int64 -- each input FIFO as a row of packed
  flit codes; ``fifo_len`` gives the live prefix.
* ``cur_out`` / ``holder`` / ``rr``: ``(B*C,)`` worm latches, output
  allocations and round-robin pointers (the reference engine's
  ``ChannelBuffer.current_out`` / ``OutputPort`` state).
* ``scode``: ``(B, S)`` the flit each source would inject next.

A flit code packs everything a kernel needs so the hot loop never touches
a Python object::

    pid << 38 | dest_end_index << 24 | size << 12 | index

(distinct from ``SimCore``'s ``pid << 20 | index`` codes, which carry no
destination -- the array kernels cannot afford a per-flit dict gather).

Traffic is **pre-generated**: generators are pure functions of the cycle,
so admission events are materialized ahead of the clock into per-source
queue arrays plus a cycle-indexed arrival index; the per-cycle admission
kernel is then a handful of scatter-adds.  ``run`` generates one window
of :data:`BUDGET` raw words per replica at a time (a whole sweep point
on small fabrics, 128 cycles on the 8192-end fractahedron), so memory
stays bounded however long the run; windows chain bit-identically.
``uniform_traffic`` streams have a fast path that reproduces the
generator's RNG draw order bit-for-bit without creating
:class:`~repro.sim.packet.Packet` objects (verified at runtime; falls
back to calling the generator when numpy's batched integer draws are not
stream-identical to scalar draws).

Equivalence contract (checked by ``tests/sim/test_vec_engine.py`` and the
CI parity smoke): at batch size 1 a :class:`VecCore` run is bit-identical
to :class:`~repro.sim.network_sim.ReferenceSim` under the field-complete
``repro.obs.parity.stats_signature`` -- same latency order, link flit
counts, deadlock cycles, exception text.  At batch size B, replica ``b``
is bit-identical to an independent run of the same (traffic, config),
which subsumes statistical equivalence.

Fault recovery
--------------

A lone core (``B = 1``) also runs fault schedules and the recovery
manager (:mod:`repro.sim.recovery`): a per-channel up mask, stepped from
the schedule's state changes, joins the space tests of injection and
allocation; :meth:`VecCore.drop_packet` purges a worm's latches, FIFO
flits and NIC cursor, touching only the rows the worm occupies;
:meth:`VecCore.requeue` puts a
retried packet back into its source's queue row; and
:meth:`VecCore.swap_tables` replaces the route phase's ``(ports, lut,
row offsets)`` in one step.  The fault-free step loop pays one flag test
per phase for all of it.

Unsupported features (recovery in a batch, router pipelining, VC
selection, route overrides, delivery hooks, store-and-forward, traces,
probes) stay on the reference/compiled engines; :func:`vec_blockers` names
them and :func:`repro.sim.api.preferred_engine` decides.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.deadlock.waitfor import WaitForGraph
from repro.network.graph import Network
from repro.routing.base import RoutingTable, sorted_unique
from repro.sim.compile import CompiledNet, compile_network
from repro.sim.engine import DeadlockDetected, SimConfig
from repro.sim.fault import FaultSchedule
from repro.sim.packet import Packet, PacketRecords
from repro.sim.stats import SimStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.recovery import FailoverPlan, RecoveryManager
    from repro.sim.traffic import TrafficGenerator

__all__ = ["UniformPlan", "VecCore", "VecSim", "vec_blockers"]

# Flit-code layout (int64): pid << 38 | dest << 24 | size << 12 | index.
# Index sits in the low bits so advancing a source's serialization cursor
# is ``code + 1``.
IDX_BITS = 12
SIZE_BITS = 12
DEST_BITS = 14
SIZE_SHIFT = IDX_BITS
DEST_SHIFT = IDX_BITS + SIZE_BITS
PID_SHIFT = IDX_BITS + SIZE_BITS + DEST_BITS
IDX_MASK = (1 << IDX_BITS) - 1
SIZE_MASK = (1 << SIZE_BITS) - 1
DEST_MASK = (1 << DEST_BITS) - 1
MAX_PID = (1 << (62 - PID_SHIFT)) - 1  # ~16M packets per replica
MAX_SIZE = SIZE_MASK
MAX_ENDS = DEST_MASK


@dataclass(frozen=True)
class UniformPlan:
    """A hashable recipe for a ``uniform_traffic`` stream.

    Carrying the recipe (instead of the stateful generator) lets the
    batched core pre-generate arrivals on its array fast path, and lets
    :class:`repro.sim.api.SimSpec` stay hashable.  The class is sealed:
    the fast path reads ``rate``/``packet_size``/``seed`` directly, so a
    subclass overriding :meth:`build` would be silently ignored there.
    """

    rate: float
    packet_size: int
    seed: int

    def __init_subclass__(cls, **kwargs) -> None:
        raise TypeError(
            f"UniformPlan cannot be subclassed ({cls.__name__}): the vectorized "
            "core reads its fields directly; pass a TrafficGenerator "
            "(repro.sim.traffic) for other traffic"
        )

    def __post_init__(self) -> None:
        # checked where the plan is made, so every engine fails alike
        if not 0.0 <= self.rate <= 1.0:  # also refuses nan
            raise ValueError("rate must be in [0, 1]")
        if self.packet_size < 1:
            raise ValueError("packets need at least one flit")

    def build(self, net: Network) -> "TrafficGenerator":
        from repro.sim.traffic import uniform_traffic

        return uniform_traffic(net.end_node_ids(), self.rate, self.packet_size, self.seed)


def vec_blockers(
    config: SimConfig,
    *,
    net: Network | None = None,
    replicas: int = 1,
    vc_select=None,
    fault=None,
    trace=None,
    route_override=None,
    on_deliver=None,
    failover=None,
    recovery=None,
    probe=None,
) -> list[str]:
    """Features of a run the vectorized engine does not model.

    An empty list means the run is expressible as array kernels; anything
    named here needs the reference or compiled engine.  Fault schedules,
    recovery policies and recovery managers run on a lone core only, so a
    batch of ``replicas > 1`` names them with the remedy.  Given ``net`` (and
    the batch's ``replicas``), the engine's capacity limits are checked
    too: the flit code's destination field (:data:`MAX_ENDS`) and the
    int32 flat-index range of the step kernels.  The engine decision
    (:func:`repro.sim.api.preferred_engine`) and the core itself ask this
    one function; the decision adds the plan's packet size
    (:data:`MAX_SIZE`), which only the traffic knows.
    """
    blockers: list[str] = []
    if net is not None:
        ends = net.num_end_nodes
        if ends > MAX_ENDS:
            blockers.append(
                f"{ends} end nodes (the flit code addresses at most "
                f"MAX_ENDS={MAX_ENDS} destinations; use engine='compiled')"
            )
        channels = net.num_links * config.vc_count
        depth = config.buffer_depth
        if replicas * max(channels * (1 << max(depth - 1, 0).bit_length()), ends) >= 1 << 31:
            blockers.append(
                f"{replicas} replicas x {channels} channels x buffer depth "
                f"{depth} (past the kernels' int32 index range; run fewer "
                "replicas per batch or use engine='compiled')"
            )
    if config.switching != "wormhole":
        blockers.append(f"switching={config.switching!r}")
    if config.router_delay:
        blockers.append("router_delay")
    if vc_select is not None:
        blockers.append("vc_select")
    if route_override is not None:
        blockers.append("route_override")
    if on_deliver is not None:
        blockers.append("on_deliver")
    if fault is not None and not isinstance(fault, FaultSchedule):
        blockers.append("non-FaultSchedule fault object")
    if trace is not None:
        blockers.append("trace")
    if probe is not None:
        blockers.append("probe")
    if replicas > 1:
        # fault schedules and recovery run on a lone core only
        lone = []
        if config.retry is not None or config.reroute is not None:
            lone.append("recovery policies")
        if fault is not None:
            lone.append("fault schedule")
        if failover is not None or recovery is not None:
            lone.append("recovery manager")
        blockers += [
            f"{name} in a batch of {replicas} replicas (run each episode "
            "lone, or use engine='compiled')"
            for name in lone
        ]
    return blockers


_EMPTYP = np.empty(0, dtype=np.intp)
_EMPTY64 = np.empty(0, dtype=np.int64)

#: Width crossover for active-set derivation: full-width boolean scans
#: (~1 byte/element linear passes) beat the incremental sorted-merge
#: upkeep (index mode makes about 36 C-level calls per cycle on the
#: depth-3 fabric against scan mode's 33) until replicas*channels reaches
#: the tens of thousands; measured on the depth-3/4 fractahedron curve the
#: break-even sits between 5K and 43K channels.
ACTIVE_SCAN_MAX = 1 << 15

#: Traffic pre-generation window, in raw PCG64 words per replica: ``run``
#: materializes ``max(1, BUDGET // sources)`` cycles of arrivals at a time
#: (a uniform stream draws about one word per source per cycle), which
#: bounds the window's transient arrays at tens of MB however long the
#: run, while fabrics up to a few hundred sources still fit a whole sweep
#: point in one window.  On the depth-4 fractahedron (8192 sources, 4000
#: cycles) the process peaked at 251 / 267 / 294 / 338 MB with budgets of
#: 2**19 / 2**20 / 2**21 / 2**22, against 1251 MB for one whole-run window
#: (docs/performance.md).
BUDGET = 1 << 20


def _fold_counts(keys, counts, new_keys, new_counts):
    """Fold sorted unique ``(new_keys, new_counts)`` into the sorted unique
    ``(keys, counts)``, summing the counts of shared keys.  Returns the
    folded ``(keys, counts)`` and each new key's count before the fold
    (0 where it was absent)."""
    before = np.zeros(new_keys.size, dtype=np.int64)
    if not keys.size:
        return new_keys, new_counts, before
    pos = np.searchsorted(keys, new_keys)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == new_keys[hit]
    before[hit] = counts[pos[hit]]
    counts = counts.copy()
    np.add.at(counts, pos[hit], new_counts[hit])
    fresh = ~hit
    return (
        np.insert(keys, pos[fresh], new_keys[fresh]),
        np.insert(counts, pos[fresh], new_counts[fresh]),
        before,
    )


def _route_index(ch_router, ports_width: int, lut: np.ndarray, V: int):
    """Per-channel row offsets for the route phase's two-gather lookup.

    Returns ``rows``, a ``(C, 2)`` array of each channel's row offset into
    the flat port matrix and into the flat per-VC LUT, and that LUT:
    ``lut`` itself with one VC, else ``lut`` widened to ``(routers, V,
    width)`` with each entry's VC added (``-1`` stays ``-1``).  A head on
    channel ``ch`` bound for end ``e`` then forwards onto
    ``lutv[rows[ch, 1] + ports[rows[ch, 0] + e]]``, which is
    :func:`~repro.routing.base.next_channel` plus the input VC.  A ``-1``
    port lands on the previous row's trailing ``-1`` column, as in
    ``next_channel``.
    """
    router = np.array(ch_router, dtype=np.intp)  # a copy: scaled in place below
    rows = np.empty((router.size, 2), dtype=np.intp)
    np.multiply(router, ports_width, out=rows[:, 0])
    if V == 1:
        np.multiply(router, lut.shape[1], out=rows[:, 1])
        return rows, lut.reshape(-1)
    router *= V
    router += np.arange(router.size, dtype=np.intp) % V
    np.multiply(router, lut.shape[1], out=rows[:, 1])
    wide = lut[:, None, :]
    vc = np.arange(V, dtype=lut.dtype)[None, :, None]
    return rows, np.where(wide >= 0, wide + vc, -1).astype(lut.dtype).reshape(-1)


def _group_by_key(keys: np.ndarray, bits: int):
    """Group equal ``keys`` in stable order with one value sort.

    Returns ``order`` (the stable ascending argsort of ``keys``), the
    start of each group within it and each group's key.  The sort runs on
    the composite ``key << bits | position``, whose values are unique, so
    an in-place value sort (several times faster than a stable argsort)
    yields the stable order from the low bits.  ``bits`` must cover every
    position: ``keys.size <= 1 << bits``.
    """
    comp = np.left_shift(keys, bits, dtype=np.int64)
    comp |= np.arange(keys.size, dtype=np.int64)
    comp.sort()
    skey = comp >> bits
    first = np.empty(skey.size, dtype=bool)
    first[:1] = True
    np.not_equal(skey[1:], skey[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return comp & ((1 << bits) - 1), starts, skey[starts]


def _is_tail(codes: np.ndarray) -> np.ndarray:
    """Which packed flit codes are their packet's tail (``index + 1 ==
    size``).  The low 12 bits of ``(code >> SIZE_SHIFT) - code`` are
    ``size - index`` mod 4096, and ``0 <= index < size <= MAX_SIZE``
    makes that 1 exactly at the tail: four operations instead of five."""
    return (((codes >> SIZE_SHIFT) - codes) & IDX_MASK) == 1


def _fires(raw: np.ndarray, rate: float) -> np.ndarray:
    """``random() < rate`` for each raw PCG64 word, as one integer compare.

    ``random()`` maps a word to ``(w >> 11) * 2**-53``.  ``rate * 2**53``
    is exact, so that double is below ``rate`` exactly when ``w >> 11`` is
    below ``ceil(rate * 2**53)``, i.e. when ``w`` is below that ceiling
    shifted back up by 11 bits.  Only ``rate == 1.0`` lifts the threshold
    to ``2**64``, past uint64: every word fires.
    """
    c = math.ceil(rate * 2.0**53)
    if c >= 1 << 53:
        return np.ones(raw.shape, dtype=bool)
    return raw < np.uint64(c << 11)


def _wait_for_cycles(C, det1, det2, rb, rc, ro, gb, gc, fifo_len) -> dict[int, dict[int, int]]:
    """The desire sets of the flagged replicas whose wait-for graph closes
    a cycle, keyed by replica, each in ascending channel order.

    ``(rb, rc)`` is the ``(replica, channel)``-sorted occupied set, ``ro``
    each buffer's desired output, ``(gb, gc)`` the granted requests (or
    None) and ``fifo_len`` the post-move buffer lengths over the flat
    ``replica * C + channel`` index.  Stalled replicas (``det1``) test
    their full desire set; still-moving replicas at a check interval
    (``det2``) test only the blocked (ungranted) subset; a buffer the move
    emptied waits for nothing -- the reference's bookkeeping semantics.

    The graph is functional (each waiting channel wants one output), so
    cycle *existence* is decided by pointer doubling over the ``n`` kept
    requests -- ``O(log n)`` array ops, nothing as wide as the network.
    The requests are sorted, so a sorted search maps each one's desired
    output onto the request that channel makes in turn, or onto ``-1``
    when it makes none.
    """
    flagged = det1 if det2 is None else (det1 | det2)
    key = rb.astype(np.int64) * C + rc
    keep = flagged[rb] & (fifo_len.take(key) > 0)
    if gb is not None and det2 is not None:
        g2 = (det2 & ~det1)[gb]
        if g2.any():
            keep[np.searchsorted(key, gb[g2].astype(np.int64) * C + gc[g2])] = False
    src = key[keep]
    wb, wc, wo = rb[keep], rc[keep], ro[keep]
    n = src.size
    tgt = src + (wo - wc)  # == replica * C + desired output
    sub = np.searchsorted(src, tgt)
    hit = sub < n
    hit[hit] = src.take(sub[hit]) == tgt[hit]
    sub[~hit] = -1
    for _ in range(max(n, 2).bit_length() + 1):
        valid = sub >= 0
        if not valid.any():
            break
        sub = np.where(valid, sub.take(np.maximum(sub, 0)), -1)
    cyclic = {}
    for b in sorted_unique(wb[sub >= 0]).tolist():
        mine = wb == b
        cyclic[b] = dict(zip(wc[mine].tolist(), wo[mine].tolist()))
    return cyclic


_BATCHED_INTS_OK: bool | None = None


def _batched_ints_identical() -> bool:
    """True when ``rng.integers(lo, hi, size=k)`` consumes the PCG64 stream
    exactly like ``k`` successive scalar draws (numpy's Lemire rejection is
    per-element either way, but verify rather than assume)."""
    global _BATCHED_INTS_OK
    if _BATCHED_INTS_OK is None:
        a = np.random.default_rng(20260808)
        b = np.random.default_rng(20260808)
        ok = True
        for n, k in ((17, 5), (63, 63), (5, 1), (31, 12)):
            ua, ub = a.random(n), b.random(n)
            ok = ok and bool(np.array_equal(ua, ub))
            scalars = [int(a.integers(0, n - 1)) for _ in range(k)]
            batched = b.integers(0, n - 1, size=k)
            ok = ok and scalars == batched.tolist()
        _BATCHED_INTS_OK = ok
    return _BATCHED_INTS_OK


_RAW_UNIFORM_OK: bool | None = None


def _raw_uniform_ok() -> bool:
    """Gate for the whole-window uniform pre-generation fast path.

    That path replays ``default_rng`` draws by interpreting raw PCG64
    words directly: ``random()`` consumes one word per double
    (``(w >> 11) * 2**-53``, compared with the rate as :func:`_fires`'
    integer threshold) and small-range ``integers`` consumes buffered
    32-bit halves (low half first) through Lemire's multiply-shift
    rejection.  Verify all three -- plus the post-window state handoff
    (``advance`` + uint32-buffer fix) -- against the Generator API once
    per process; any mismatch (exotic numpy build or bit generator)
    disables the fast path in favour of per-cycle draws.
    """
    global _RAW_UNIFORM_OK
    if _RAW_UNIFORM_OK is None:
        try:
            _RAW_UNIFORM_OK = _check_raw_uniform()
        except (AttributeError, KeyError, TypeError, ValueError):
            # An exotic numpy build or bit generator can lack the PCG64
            # state-dict shape the probe pokes at; that only means "no
            # fast path", so fall back quietly.  Anything else (a kernel
            # bug, a MemoryError) must propagate, not silently degrade.
            _RAW_UNIFORM_OK = False
    return _RAW_UNIFORM_OK


def _check_raw_uniform() -> bool:
    for n in (7, 64, 5, 2):
        ref = np.random.default_rng(987)
        seq_u: list[np.ndarray] = []
        seq_i: list[int] = []
        for _ in range(50):
            u = ref.random(n)
            seq_u.append(u)
            seq_i.extend(
                int(ref.integers(0, n - 1)) for _ in range(int((u < 0.4).sum()))
            )
        rep = np.random.default_rng(987)
        bg = rep.bit_generator
        if type(bg).__name__ != "PCG64":
            return False
        state0 = bg.state
        pend = bool(state0["has_uint32"])
        pv = int(state0["uinteger"])
        raw = bg.random_raw(50 * n + len(seq_i) + 64)
        rng_excl = n - 1
        threshold = ((1 << 32) - rng_excl) % rng_excl if rng_excl > 1 else 0
        p = 0
        got_i: list[int] = []
        for u_ref in seq_u:
            u = (raw[p : p + n] >> 11) * (2.0**-53)
            if not np.array_equal(u, u_ref):
                return False
            p += n
            for _ in range(int((u < 0.4).sum())):
                if rng_excl <= 1:
                    got_i.append(0)  # integers(0, 1) draws nothing
                    continue
                while True:
                    if pend:
                        h, pend = pv, False
                    else:
                        w = int(raw[p])
                        p += 1
                        h = w & 0xFFFFFFFF
                        pv, pend = w >> 32, True
                    m = h * rng_excl
                    if (m & 0xFFFFFFFF) >= threshold:
                        got_i.append(m >> 32)
                        break
        if got_i != seq_i:
            return False
        if n == 64:
            # handoff: park the generator exactly after the replayed prefix
            # and let the Generator API produce the rest of the reference
            # sequence, as consecutive pre-generation windows do
            bg.state = state0
            bg.advance(p)
            st = bg.state
            st["has_uint32"] = int(pend)
            st["uinteger"] = int(pv) if pend else 0
            bg.state = st
            cont = np.random.Generator(bg)
            tail_u = [cont.random(n) for _ in range(3)]
            ref_tail = [ref.random(n) for _ in range(3)]
            if not all(np.array_equal(a, b) for a, b in zip(tail_u, ref_tail)):
                return False
    # the replay decides "fired" with _fires' integer compare on the raw
    # word; it must pick exactly the words random() < rate picks
    for rate in (0.4, 0.002, 2.0**-53, 1.0):
        ref = np.random.default_rng(4321)
        raw = np.random.default_rng(4321).bit_generator.random_raw(4096)
        if not np.array_equal(_fires(raw, rate), ref.random(4096) < rate):
            return False
    return True


def _stable_order(values: np.ndarray) -> np.ndarray:
    """Stable ascending order of non-negative ints: one quicksort on the
    unique ``(value, position)`` key, built in place to bound the
    temporaries of a whole pre-generation window."""
    key = values.astype(np.int64)
    key *= values.size
    key += np.arange(values.size, dtype=np.int64)
    return np.argsort(key)


class _Stream:
    """Per-replica pre-generation state."""

    __slots__ = ("gen", "plan", "rng", "node_end", "next_pid", "orig")

    def __init__(self, source, net: Network, end_index: dict[str, int]) -> None:
        if isinstance(source, UniformPlan):
            self.plan = source
            self.gen = None
            self.rng = np.random.default_rng(source.seed)
            self.node_end = np.array(
                [end_index[n] for n in net.end_node_ids()], dtype=np.int64
            )
            self.orig = None  # packets materialized lazily from arrays
        else:
            self.plan = None
            self.gen = source
            self.rng = None
            self.node_end = None
            self.orig = {}  # pid -> original Packet (stamps flushed at run end)
        self.next_pid = 0


class VecCore:
    """The batched wormhole engine (see module docstring).

    One instance advances ``B`` independent replicas of the same
    ``(net, tables, config)``; each replica has its own traffic stream.
    ``run`` drives every live replica with the same per-cycle kernels and
    freezes replicas individually (deadlock, drained, budget), so replica
    ``b``'s final :class:`~repro.sim.stats.SimStats` exactly equals the
    stats of an independent single run.

    ``fault``, ``failover`` and ``recovery`` are the scalar engines'
    recovery hooks, for a lone core only (module docstring, "Fault
    recovery"); as there, retry/reroute policies or a failover plan
    without a manager build one (:func:`repro.sim.recovery.implied_manager`).
    """

    def __init__(
        self,
        net: Network,
        tables: RoutingTable,
        streams: Sequence["TrafficGenerator | UniformPlan"],
        config: SimConfig | None = None,
        *,
        fault: FaultSchedule | None = None,
        failover: "FailoverPlan | None" = None,
        recovery: "RecoveryManager | None" = None,
    ) -> None:
        self.net = net
        self.tables = tables
        self.config = cfg = config or SimConfig()
        bad = vec_blockers(
            cfg, net=net, replicas=len(streams), fault=fault, failover=failover,
            recovery=recovery,
        )
        if bad:
            raise ValueError("vectorized engine does not support: " + ", ".join(bad))
        if not streams:
            raise ValueError("VecCore needs at least one traffic stream")

        self._cn = cn = compile_network(net, cfg.vc_count)
        self.B = B = len(streams)
        self.C = C = cn.num_channels
        self.L = L = cn.num_links
        self.S = S = len(cn.end_ids)
        self.V = cfg.vc_count
        self.D = D = cfg.buffer_depth

        # ---- static per-channel facts as arrays
        self._ch_end = cn.ch_dst_is_end
        self._inj_ch = cn.inj_ch
        self._inj_link = self._inj_ch // self.V  # link of each source's channel
        self._any_orphan_src = bool((self._inj_ch < 0).any())
        # flat (replica, injection channel) indices for the space check
        self._inj_flat = (
            np.arange(B, dtype=np.intp)[:, None] * C
            + np.maximum(self._inj_ch, 0)[None, :]
        ).reshape(-1)
        self._install_routes(tables)
        # the allocate phase's (output key, position) sort key: positions
        # count requests, at most B*C, and keys stay below B*C < 2**31
        self._gbits = (B * C).bit_length()

        # ---- dynamic state, struct-of-arrays.  The per-channel counters are
        # int32: the phases are dominated by random gathers over them, and
        # the narrower dtype halves both bandwidth and cache footprint.
        # FIFO width is padded to a power of two so ring-buffer slot wrap
        # is a bitmask instead of a compare-and-subtract
        self._Dp = 1 << (D - 1).bit_length()
        self._fifo = np.zeros((B * C, self._Dp), dtype=np.int64)
        self._fifo_flat = self._fifo.reshape(-1)
        self._fhead = np.zeros(B * C, dtype=np.int32)  # ring-buffer head slot
        self._fifo_len = np.zeros(B * C, dtype=np.int32)
        self._fl2 = self._fifo_len.reshape(B, C)
        # each buffer's latched output is an index (intp), not a counter
        self._cur_out = np.full(B * C, -1, dtype=np.intp)
        self._holder = np.full(B * C, -1, dtype=np.int32)
        self._rr = np.zeros(B * C, dtype=np.int32)
        self._lf = np.zeros((B, L), dtype=np.int64)
        self._lf_pend: list[np.ndarray] = []  # deferred link-flit counts
        self._scode = np.full((B, S), -1, dtype=np.int64)
        self._sflat = self._scode.reshape(-1)
        # per-(src, dst) sequence carry across pre-generation windows:
        # sorted (pair key, packets so far) arrays per replica
        self._pair_carry: list[tuple[np.ndarray, np.ndarray]] = [
            (_EMPTY64, _EMPTY64)
        ] * B

        # ---- per-packet flat arrays (grown on demand)
        self._pcap = 0
        self._psrc = self._pdst = self._psize = None
        self._pcreated = self._pinj = self._pdel = self._pseq = None
        self._grow_pcap(1024)

        # ---- source queues (filled by pre-generation)
        self._qchunks: list[tuple[np.ndarray, np.ndarray]] = []  # (flat, codes)
        self._qcodes = np.zeros((B * S, 1), dtype=np.int64)  # packed rows
        self._qflat, self._qw = self._qcodes.reshape(-1), 1
        self._qfill = np.zeros(B * S, dtype=np.int64)  # packed entries per row
        self._qstart = np.zeros(B * S, dtype=np.int64)
        self._qtail = np.zeros(B * S, dtype=np.int64)
        self._win_adm: list[tuple] = []  # (cyc, flat, pid) per pregen call
        # cycle -> its admission slice, popped when admitted
        self._adm_arrays: dict[int, tuple] = {}
        self._adm_cycles = np.empty(0, dtype=np.int64)  # sorted admission cycles

        # ---- active sets: sorted compressed index arrays the sparse step
        # kernels gather/scatter over instead of the full (B*C,) width.
        # Active-set derivation mode: below the crossover a full-width
        # boolean scan re-derives the occupied/armed index arrays each
        # cycle (a handful of linear passes); above it the incremental
        # sorted-merge upkeep wins because scans grow with B*C while
        # upkeep grows with what the cycle actually touched (see
        # ACTIVE_SCAN_MAX for the calibration)
        self._scan = B * C <= ACTIVE_SCAN_MAX
        self._occ_idx = _EMPTYP  # flat (replica, channel) with queued flits
        self._occ_mask = np.zeros(0 if self._scan else B * C, dtype=bool)
        # flat (replica, source) with work to inject.  Unlike the occupied
        # set this one is unsorted: sources never arbitrate against each
        # other, so no kernel depends on its order, and a membership mask
        # keeps it duplicate-free without any per-cycle sort.
        self._armed_idx = _EMPTYP
        self._armed_mask = np.zeros(0 if self._scan else B * S, dtype=bool)

        # ---- per-replica bookkeeping
        self._offered = np.zeros(B, dtype=np.int64)
        self._pi = np.zeros(B, dtype=np.int64)  # packets injected
        self._pd = np.zeros(B, dtype=np.int64)  # packets delivered
        self._fmoved = np.zeros(B, dtype=np.int64)
        self._fdel = np.zeros(B, dtype=np.int64)
        self._peak = np.zeros(B, dtype=np.int64)
        self._stall = np.zeros(B, dtype=np.int64)
        self._backlog = np.zeros(B, dtype=np.int64)
        self._cyc = np.zeros(B, dtype=np.int64)
        self._alive = np.ones(B, dtype=bool)
        self._dl_cycle: list[list[str] | None] = [None] * B
        self._dl_at: list[int | None] = [None] * B
        self._del_b: list[np.ndarray] = []  # delivery order: replica chunks
        self._del_pid: list[np.ndarray] = []
        self._dord: list[np.ndarray] | None = None
        self._dord_n = -1
        self._cycle = 0
        self._pregen_done = 0

        self._streams = [_Stream(s, net, cn.end_index) for s in streams]

        # ---- fault recovery, on a lone core (vec_blockers refuses batches).
        # Every check the step phases make sits behind ``_recovering`` or
        # ``_ch_up is not None``, so a fault-free run does no extra work.
        from repro.sim.recovery import implied_manager

        self.fault = fault
        self.recovery = (
            recovery if recovery is not None
            else implied_manager(net, tables, cfg, fault, failover)
        )
        self._recovering = fault is not None or self.recovery is not None
        #: the counters the recovery manager (and drop/swap) count into
        self.recovery_stats = SimStats()
        # link state changes as (cycle, link, down), applied by pointer
        self._fault_events = [] if fault is None else fault.state_changes(cn.link_index)
        self._fault_ptr = 0
        self._ch_up = None if fault is None else np.ones(C, dtype=bool)
        self._killed = np.zeros(B, dtype=np.int64)  # injected worms dropped
        self._pair_sent: dict[int, int] = {}  # injections per (src, dst) pair

    # ------------------------------------------------------------------
    def _route_from(self, tables: RoutingTable) -> tuple[np.ndarray, np.ndarray]:
        from repro.routing.cache import DEFAULT_CACHE

        return DEFAULT_CACHE.get_or_lower(self.net, tables, self.config.vc_count)

    def _install_routes(self, tables: RoutingTable) -> None:
        """Point the route phase at ``tables``: the port matrix, the LUT and
        the per-channel row offsets into both."""
        self._ports, self._lut = self._route_from(tables)
        self._ports_flat = self._ports.reshape(-1)
        self._route_rows, self._lutv = _route_index(
            self._cn.ch_router, self._ports.shape[1], self._lut, self.V
        )

    def _grow_pcap(self, need: int) -> None:
        if need > MAX_PID:
            raise ValueError(
                f"vectorized engine requires dense packet ids < {MAX_PID}"
            )
        if need <= self._pcap:
            return
        new = max(need, 2 * self._pcap)

        def grow(arr, fill):
            out = np.full((self.B, new), fill, dtype=np.int32)
            if arr is not None and self._pcap:
                out[:, : self._pcap] = arr
            return out

        # int32 halves a batch's packet table: end indices, sizes and pair
        # ranks fit (MAX_ENDS, MAX_SIZE, MAX_PID), and the clock is a Python
        # int, which numpy refuses to store past 2**31 - 1 (OverflowError)
        self._psrc = grow(self._psrc, 0)
        self._pdst = grow(self._pdst, 0)
        self._psize = grow(self._psize, 0)
        self._pcreated = grow(self._pcreated, -1)
        self._pinj = grow(self._pinj, -1)
        self._pdel = grow(self._pdel, -1)
        self._pseq = grow(self._pseq, 0)
        self._pcap = new

    # ------------------------------------------------------------------
    # pre-generation
    # ------------------------------------------------------------------
    def _admit_bulk(self, b: int, cyc_arr, pids, srcs, dsts, sizes) -> None:
        """Record one replica's pre-generated arrivals for a whole window:
        queue codes plus per-cycle admission chunks (``cyc_arr`` ascending)."""
        if not pids.size:
            return
        self._grow_pcap(int(pids.max()) + 1)
        self._psrc[b, pids] = srcs
        self._pdst[b, pids] = dsts
        self._psize[b, pids] = sizes
        self._pseq[b, pids] = self._pair_rank(b, srcs, dsts)
        codes = (pids << PID_SHIFT) | (dsts << DEST_SHIFT) | (sizes << SIZE_SHIFT)
        flat = b * self.S + srcs
        self._qchunks.append((flat, codes))
        self._win_adm.append((cyc_arr, flat, pids))

    def _pair_rank(self, b: int, srcs, dsts) -> np.ndarray:
        """Injection-time sequence stamps, computed at admission.

        The reference numbers packets per (src, dst) pair as the NIC sends
        them, but sources are FIFO queues: a pair's packets (all from one
        source) inject strictly in creation order, so the stamp is simply
        the packet's creation rank within its pair -- computable here with
        one stable grouping pass instead of per-head counters in the hot
        loop.  ``srcs``/``dsts`` arrive in creation order.
        """
        pair = srcs * np.int64(self.S) + dsts
        order = np.argsort(pair, kind="stable")
        spair = pair[order]
        first = np.empty(pair.size, dtype=bool)
        first[0] = True
        np.not_equal(spair[1:], spair[:-1], out=first[1:])
        gstart = np.flatnonzero(first)
        gsize = np.diff(np.append(gstart, pair.size))
        rank = np.empty(pair.size, dtype=np.int64)
        rank[order] = np.arange(pair.size, dtype=np.int64) - np.repeat(gstart, gsize)
        keys, counts, before = _fold_counts(
            *self._pair_carry[b], spair[gstart], gsize
        )
        self._pair_carry[b] = (keys, counts)
        if before.any():  # later windows continue earlier windows' counts
            rank[order] += np.repeat(before, gsize)
        return rank

    def _pregen_uniform(self, b: int, st: _Stream, start: int, stop: int) -> None:
        plan = st.plan
        rng = st.rng
        node_end = st.node_end
        n = node_end.size
        rate = plan.rate
        psize = plan.packet_size
        if psize > MAX_SIZE:
            raise ValueError(
                f"vectorized engine supports packet sizes <= {MAX_SIZE}"
            )
        if self._pregen_uniform_fast(b, st, start, stop):
            return
        batched = _batched_ints_identical()
        ts: list[int] = []
        ks: list[int] = []
        fireds: list[np.ndarray] = []
        jss: list[np.ndarray] = []
        total = 0
        for t in range(start, stop):
            fired = np.flatnonzero(rng.random(n) < rate)
            k = fired.size
            if not k:
                continue
            if batched and n >= 2:
                js = rng.integers(0, n - 1, size=k)
            else:
                js = np.array(
                    [int(rng.integers(0, n - 1)) for _ in range(k)], dtype=np.int64
                )
            ts.append(t)
            ks.append(k)
            fireds.append(fired)
            jss.append(js + (js >= fired))  # skip self, as uniform_traffic does
            total += k
        if not total:
            return
        cyc_arr = np.repeat(np.array(ts, dtype=np.int64), ks)
        fired_all = np.concatenate(fireds)
        js_all = np.concatenate(jss)
        pids = st.next_pid + np.arange(total, dtype=np.int64)
        st.next_pid += total
        self._admit_bulk(
            b,
            cyc_arr,
            pids,
            node_end[fired_all],
            node_end[js_all],
            np.full(total, psize, dtype=np.int64),
        )

    def _pregen_uniform_fast(self, b: int, st: _Stream, start: int, stop: int) -> bool:
        """Whole-window uniform pre-generation from raw PCG64 words.

        Drains the replica's generator stream in one ``random_raw`` call and
        replays it vectorized (see :func:`_raw_uniform_ok` for the verified
        word discipline), leaving the generator parked exactly where the
        per-cycle loop would have left it.  The per-cycle Python work drops
        to a handful of integer ops; firing sources, destination draws, and
        admission cycles are all assembled with array passes afterwards.
        Returns False when this window must fall back to per-cycle draws.
        """
        plan = st.plan
        node_end = st.node_end
        n = node_end.size
        if n < 2 or not _raw_uniform_ok():
            return False
        rng = st.rng
        bg = getattr(rng, "bit_generator", None)
        if bg is None or type(bg).__name__ != "PCG64":
            return False
        rate = plan.rate
        T = stop - start
        state0 = bg.state
        init_pend = 1 if state0["has_uint32"] else 0
        init_pv = int(state0["uinteger"])
        rng_excl = n - 1  # integers(0, n-1) has n-1 possible values
        threshold = ((1 << 32) - rng_excl) % rng_excl if rng_excl > 1 else 0
        exp_fired = T * n * rate
        raw = bg.random_raw(int(T * n + 0.6 * exp_fired + 8.0 * exp_fired**0.5 + 64))
        for _ in range(8):
            res = self._scan_uniform_raw(raw, T, n, rate, rng_excl, init_pend)
            if res is not None:
                break
            raw = np.concatenate([raw, bg.random_raw(raw.size)])
        else:  # pragma: no cover - cannot happen with geometric regrowth
            bg.state = state0
            return False
        fpos, ts, fs, dstarts, flo, int_pos, h_total, p_total = res

        tot = int(h_total) if rng_excl > 1 else int(sum(fs))
        pend, pv = init_pend, init_pv
        js = None
        if tot:
            if rng_excl > 1:
                ipa = np.array(int_pos, dtype=np.int64)
                halves = np.empty(init_pend + 2 * ipa.size, dtype=np.uint64)
                if init_pend:
                    halves[0] = init_pv
                w = raw[ipa]
                halves[init_pend::2] = w & np.uint64(0xFFFFFFFF)
                halves[init_pend + 1 :: 2] = w >> np.uint64(32)
                m = halves[:h_total] * np.uint64(rng_excl)
                if threshold and bool(
                    ((m & np.uint64(0xFFFFFFFF)) < np.uint64(threshold)).any()
                ):
                    # a Lemire rejection (p < 4e-6 per draw): replay slowly
                    bg.state = state0
                    return False
                js = (m >> np.uint64(32)).astype(np.int64)
                # halves served from fresh words; a parked half from the
                # last window went first, so it is spent even when none are
                served = h_total - init_pend
                pend = served % 2
                pv = int(raw[int_pos[-1]] >> np.uint64(32)) if pend else 0
            else:
                js = np.zeros(tot, dtype=np.int64)

        bg.state = state0
        bg.advance(p_total)
        stf = bg.state
        stf["has_uint32"] = pend
        stf["uinteger"] = pv
        bg.state = stf

        if not tot:
            return True
        # a fired cycle's sources are its block's fired word positions,
        # fpos[flo : flo + f], less the block start (ascending, as the
        # per-cycle loop draws them)
        fs_a = np.array(fs, dtype=np.int64)
        skip = np.array(flo, dtype=np.int64) - (np.cumsum(fs_a) - fs_a)
        srcs = fpos[np.arange(tot, dtype=np.int64) + np.repeat(skip, fs_a)]
        srcs -= np.repeat(np.array(dstarts, dtype=np.int64), fs_a)
        dsts = js + (js >= srcs)
        cyc_arr = np.repeat(np.array(ts, dtype=np.int64) + start, fs_a)
        pids = st.next_pid + np.arange(tot, dtype=np.int64)
        st.next_pid += tot
        self._admit_bulk(
            b,
            cyc_arr,
            pids,
            node_end[srcs],
            node_end[dsts],
            np.full(tot, plan.packet_size, dtype=np.int64),
        )
        return True

    @staticmethod
    def _scan_uniform_raw(raw, T, n, rate, rng_excl, init_pend):
        """Segment the raw word stream into per-cycle double blocks and
        integer words (no-rejection layout; the caller verifies).  Returns
        None when ``raw`` is too short."""
        # sorted positions of every word that would fire as a double (a
        # few per cent of the window at sub-saturation rates): a cycle's
        # fired count is how many of them fall in its block [p, p + n)
        fpos = np.flatnonzero(_fires(raw, rate))
        fl = fpos.tolist()
        limit = raw.size
        p = 0
        h = 0  # integer halves drawn so far
        iw = 0  # integer words consumed so far
        lo = 0
        ts: list[int] = []
        fs: list[int] = []
        dstarts: list[int] = []
        flo: list[int] = []  # each fired block's first index into fpos
        int_pos: list[int] = []
        for t in range(T):
            if p + n > limit:
                return None
            lo = bisect_left(fl, p, lo)
            f = bisect_left(fl, p + n, lo) - lo
            if f:
                ts.append(t)
                fs.append(f)
                dstarts.append(p)
                flo.append(lo)
            p += n
            if f and rng_excl > 1:
                h += f
                target = (h - init_pend + 1) // 2 if h > init_pend else 0
                nw = target - iw
                if nw:
                    if p + nw > limit:
                        return None
                    int_pos.extend(range(p, p + nw))
                    p += nw
                    iw = target
        return fpos, ts, fs, dstarts, flo, int_pos, h, p

    def _pregen_generic(self, b: int, st: _Stream, start: int, stop: int) -> None:
        end_index = self._cn.end_index
        orig = st.orig
        cycs: list[int] = []
        pids: list[int] = []
        srcs: list[int] = []
        dsts: list[int] = []
        sizes: list[int] = []
        for t in range(start, stop):
            batch = st.gen(t)
            if not batch:
                continue
            for packet in batch:
                if packet.src not in end_index or packet.dst not in end_index:
                    raise ValueError(
                        f"traffic names unknown end node: {packet.src}->{packet.dst}"
                    )
                pid = packet.packet_id
                if pid in orig:
                    raise ValueError(
                        f"duplicate packet id {pid} (share a "
                        "SequenceCounter across composed generators)"
                    )
                if pid > MAX_PID:
                    raise ValueError(
                        f"vectorized engine requires packet ids <= {MAX_PID}"
                    )
                if packet.size < 1:
                    raise ValueError("packets need at least one flit")
                if packet.size > MAX_SIZE:
                    raise ValueError(
                        f"vectorized engine supports packet sizes <= {MAX_SIZE}"
                    )
                orig[pid] = packet
                cycs.append(t)
                pids.append(pid)
                srcs.append(end_index[packet.src])
                dsts.append(end_index[packet.dst])
                sizes.append(packet.size)
        self._admit_bulk(
            b,
            np.array(cycs, dtype=np.int64),
            np.array(pids, dtype=np.int64),
            np.array(srcs, dtype=np.int64),
            np.array(dsts, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
        )

    def _pregen_to(self, stop: int) -> None:
        start = self._pregen_done
        for b, st in enumerate(self._streams):
            if st.plan is not None:
                self._pregen_uniform(b, st, start, stop)
            else:
                self._pregen_generic(b, st, start, stop)
        self._pregen_done = stop
        self._consolidate_adm()

    def _consolidate_adm(self) -> None:
        """Turn the window's per-replica arrival arrays into per-cycle
        event slices with one stable sort (admission order within a cycle
        is immaterial: all its scatters hit unique (replica, pid) cells).
        Each slice is flagged when one source admits more than one packet
        in its cycle, the only case in which the queue-tail update must
        count repeats instead of scattering ``+1``."""
        win = self._win_adm
        if not win:
            return
        self._win_adm = []
        if len(win) == 1:
            cycs, flats, pids = win[0]
        else:
            cycs = np.concatenate([w[0] for w in win])
            flats = np.concatenate([w[1] for w in win])
            pids = np.concatenate([w[2] for w in win])
        del win  # free the per-replica arrays before the sort's temporaries
        order = _stable_order(cycs)
        cycs = cycs[order]
        flats = flats[order]
        pids = pids[order]
        uc, starts = np.unique(cycs, return_index=True)
        ends = np.append(starts[1:], cycs.size)
        nq = self.B * self.S
        pair = np.sort(cycs * nq + flats)
        repeats = set((pair[1:][pair[1:] == pair[:-1]] // nq).tolist())
        arrays = self._adm_arrays
        for t, s, e in zip(uc.tolist(), starts.tolist(), ends.tolist()):
            arrays[t] = (flats[s:e], pids[s:e], t in repeats)
        # windows arrive in ascending cycle ranges, so this stays sorted;
        # cycles already passed are dropped (their slices were popped when
        # admitted), so both memos hold about one window
        passed = int(np.searchsorted(self._adm_cycles, self._cycle))
        self._adm_cycles = np.concatenate((self._adm_cycles[passed:], uc))

    def _pack_queues(self) -> None:
        """Append the codes pre-generated since the last pack to the
        per-source queue rows; an entry's column is its rank in its own
        source's queue, which ``_qstart``/``_qtail`` count from run start."""
        chunks = self._qchunks
        if not chunks:
            return
        self._qchunks = []
        if len(chunks) == 1:
            flats, codes = chunks[0]
        else:
            flats = np.concatenate([c[0] for c in chunks])
            codes = np.concatenate([c[1] for c in chunks])
        del chunks  # free the per-replica arrays before the sort's temporaries
        nq = self.B * self.S
        counts = np.bincount(flats, minlength=nq)
        filled = self._qfill
        width = int((filled + counts).max())
        if width > self._qw:
            self._qcodes = np.pad(self._qcodes, ((0, 0), (0, width - self._qw)))
            self._qflat, self._qw = self._qcodes.reshape(-1), width
        # stable sort by queue keeps each source's arrival order
        order = _stable_order(flats)
        sf = flats[order]
        del flats
        starts = np.zeros(nq, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        col = np.arange(sf.size, dtype=np.int64)
        col -= starts[sf]
        col += filled[sf]
        self._qcodes[sf, col] = codes[order]
        self._qfill = filled + counts

    def _flush_lf(self) -> None:
        """Fold the deferred link-flit index chunks into the counters."""
        if self._lf_pend:
            idxs = np.concatenate(self._lf_pend)
            self._lf_pend = []
            self._lf += np.bincount(idxs, minlength=self._lf.size).reshape(
                self.B, self.L
            )

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> np.ndarray:
        """Per-replica census of worms currently in the fabric."""
        return self._pi - self._pd

    @property
    def backlog(self) -> np.ndarray:
        """Per-replica packets still waiting in source queues."""
        return self._backlog.copy()

    def cycle_of(self, b: int) -> int:
        return int(self._cyc[b])

    def run(self, max_cycles: int, drain: bool = False) -> list[SimStats]:
        """Advance every live replica (same contract as the reference
        engine's ``run``, applied replica-wise)."""
        if max_cycles > 0:
            alive_cycles = self._cyc[self._alive]
            if alive_cycles.size and not (alive_cycles == self._cycle).all():
                raise RuntimeError(
                    "VecCore.run after a partial drain: live replicas have "
                    "diverged clocks; use a fresh core per workload"
                )
        B = self.B
        stop = self._cycle + max_cycles
        window = max(1, BUDGET // self.S)
        b1 = B == 1
        while self._cycle < stop:
            if b1:
                # single-fabric fast path: the phases never read ``act``
                # when the lone replica is alive, so skip the per-cycle copy
                if not self._alive[0]:
                    break
                act = self._alive
                all_alive = True
            else:
                act = self._alive.copy()
                live = np.count_nonzero(act)
                if not live:
                    break
                all_alive = live == B
            if self._cycle >= self._pregen_done:
                # traffic is materialized one window at a time; each window
                # continues the streams exactly where the last one stopped
                self._pregen_to(min(stop, self._cycle + window))
                self._pack_queues()
            if self._recovering:
                # fault transitions and recovery timers act on idle cycles
                idle = False
            elif not self._scan:
                idle = not self._occ_idx.size and not self._armed_idx.size
            # armed implies backlog > 0 (the count drops only at last-flit
            # injection) and occupied implies in-flight packets, so scalar
            # tests decide idleness in scan mode
            elif b1:
                idle = not self._backlog[0] and self._pi[0] == self._pd[0]
            else:
                idle = not np.count_nonzero(self._backlog) and not np.count_nonzero(
                    self._pi - self._pd
                )
            if idle:
                # idle-cycle fast-forward (cf. SimCore._fast_forward): no
                # flit queued and no source armed anywhere, so every cycle
                # until the next pre-generated admission is provably inert
                # -- stall counters stay 0 and nothing moves.  Jump the
                # clock instead of stepping empty phases, but no further
                # than the window edge: later admissions are not generated
                # yet.
                edge = min(self._pregen_done, stop)
                i = int(np.searchsorted(self._adm_cycles, self._cycle))
                nxt = (
                    int(self._adm_cycles[i]) if i < self._adm_cycles.size else edge
                )
                target = min(max(nxt, self._cycle), edge)
                if target > self._cycle:
                    if b1:
                        self._cyc[0] += target - self._cycle
                    else:
                        self._cyc[act] += target - self._cycle
                    self._cycle = target
                    continue
            self._tick(act, all_alive, generate=True)
        if drain:
            budget = np.full(B, 4 * max_cycles + 1000, dtype=np.int64)
            while True:
                busy = (self.in_flight > 0) | (self._backlog > 0)
                if self.recovery is not None and self.recovery.pending:
                    busy[:] = True  # a retry or swap is still scheduled
                act = self._alive & busy & (budget > 0)
                live = np.count_nonzero(act)
                if not live:
                    break
                moved_before = self._fmoved.copy()
                self._tick(act, live == B, generate=False)
                # per-replica budget only burns on zero-progress cycles
                # (matching the scalar engines), so a draining backlog
                # that keeps moving flits always completes
                budget[act & (self._fmoved == moved_before)] -= 1
        return self.finalize()

    # ------------------------------------------------------------------
    # one cycle, phase by phase
    #
    # Each phase returns early on an empty input set.  Index arrays are
    # intp throughout: numpy converts any other index dtype on every
    # gather and scatter, which cost more than the narrower arrays saved.
    # With one replica, ``rb`` (the replica of each request) is identically
    # zero and stays None, and the flat index is the channel itself.
    # ------------------------------------------------------------------
    def _tick(self, act: np.ndarray, all_alive: bool, generate: bool) -> None:
        """Advance the replicas in ``act`` (all of them when ``all_alive``)
        by one cycle, in the reference engine's phase order."""
        if self._recovering:
            self._recover()
        ipos = self._inject(act, all_alive, generate)
        req = self._route(act, all_alive)
        gsel = None
        granted = push = None
        if req is not None:
            gsel, heads = self._allocate(req)
            if gsel.size:
                push, granted = self._traverse(req, gsel, heads)
        injected = self._push(ipos, push, gsel is not None and gsel.size > 0)
        self._account(act, all_alive, req, gsel, granted, injected)

    def _inject(self, act: np.ndarray, all_alive: bool, generate: bool) -> np.ndarray:
        """Inject, first half: admit this cycle's pre-generated arrivals,
        latch each idle source onto its next queued packet, and decide
        which sources inject (space checked against the pre-move state).
        Returns the flat ``(replica, source)`` indices that inject."""
        if generate:
            ev = self._adm_arrays.pop(self._cycle, None)
            if ev is not None:
                self._admit(ev, act, all_alive)
        sflat = self._sflat
        qstart, qtail = self._qstart, self._qtail
        if self._scan:
            if self.B == 1 and not self._backlog[0]:
                # no packet admitted and not yet fully injected
                return _EMPTYP
            mask = None if all_alive else np.repeat(act, self.S)
            can_start = (sflat < 0) & (qstart < qtail)
            if mask is not None:
                can_start &= mask
            sidx = can_start.nonzero()[0]
            if sidx.size:
                self._latch(sidx)
            ready = sflat >= 0
            if mask is not None:
                ready &= mask
            ipos = ready.nonzero()[0]
        else:
            ipos = self._armed_idx
            if not all_alive and ipos.size:
                ipos = ipos[act[ipos // self.S]]
            if not ipos.size:
                return ipos
            sidx = ipos[(sflat[ipos] < 0) & (qstart[ipos] < qtail[ipos])]
            if sidx.size:
                self._latch(sidx)
            # post-latch every armed source holds a latched code (armed
            # means latched-or-queued, and the latch above just converted
            # the queued-only ones), so the armed set IS the ready set
        if not ipos.size:
            return ipos
        inj = self._inj_flat[ipos]
        ok = self._fifo_len[inj] < self.D
        if self._ch_up is not None:
            ok &= self._ch_up[inj]  # a lone core: flat index == channel
        return ipos[ok]

    def _admit(self, ev: tuple, act: np.ndarray, all_alive: bool) -> None:
        """Queue one cycle's arrivals ``ev = (sources, pids, repeats)``;
        ``repeats`` says some source admits more than one packet."""
        fidx, pids, repeats = ev
        cycle = self._cycle
        B = self.B
        if B > 1:
            b_of = fidx // self.S
            if not all_alive:
                keep = act[b_of]
                if np.count_nonzero(keep) < keep.size:
                    fidx, pids, b_of = fidx[keep], pids[keep], b_of[keep]
                    if not fidx.size:
                        return
        if repeats:
            self._qtail += np.bincount(fidx, minlength=self._qtail.size)
        else:
            self._qtail[fidx] += 1
        if B == 1:
            self._offered[0] += fidx.size
            self._backlog[0] += fidx.size
            self._pcreated[0][pids] = cycle  # a row view: 2-D mixed indexing is slower
        else:
            bc = np.bincount(b_of, minlength=B)
            self._offered += bc
            self._backlog += bc
            self._pcreated.reshape(-1)[b_of * self._pcap + pids] = cycle
        if not self._scan:
            # arm immediately: this cycle's latch must see sources the
            # admission just gave work
            fresh = fidx[~self._armed_mask[fidx]]
            if fresh.size:
                if repeats:
                    fresh = sorted_unique(fresh)
                self._armed_mask[fresh] = True
                self._armed_idx = np.concatenate((self._armed_idx, fresh))

    def _latch(self, sidx: np.ndarray) -> None:
        """Idle sources ``sidx`` take the head of their next queued packet."""
        if self._any_orphan_src:
            bad = self._inj_ch[sidx % self.S] < 0
            if bad.any():
                node = self._cn.end_ids[int(sidx[bad][0]) % self.S]
                self.net.out_links(node)[0]  # raises like the reference
        qs = self._qstart[sidx]
        self._qstart[sidx] = qs + 1
        self._sflat[sidx] = self._qflat[sidx * self._qw + qs]

    def _route(self, act: np.ndarray, all_alive: bool):
        """The desired output of every occupied input buffer, or None when
        no buffer is occupied.

        The requests are ``(replica, channel)``-sorted like the reference's
        ``sorted(occupied)``: the maintained index set, or a full-width scan
        in scan mode.  Latched buffers keep their worm's output; unlatched
        fronts are heads and read ``lut[router, ports[router, dest]]`` from
        the per-channel row offsets.  Returns ``(off, rb, rc, ro, unl,
        upos)``: flat index, replica, channel, desired output, the
        unlatched mask and its positions.
        """
        C = self.C
        if self._scan:
            # 1-D nonzero on a bool mask: several times faster than on the
            # int lengths, and than a 2-D nonzero yielding (replica, channel)
            occ = self._fifo_len > 0
            if not all_alive:
                occ &= np.repeat(act, C)
            off = occ.nonzero()[0]
        else:
            off = self._occ_idx
            if not all_alive and off.size:
                off = off[act[off // C]]
        if not off.size:
            return None
        if self.B == 1:
            rb = None
            rc = off
        else:
            rb = off // C
            rc = off - rb * C
        ro = self._cur_out[off]
        unl = ro < 0
        upos = unl.nonzero()[0]
        if upos.size:
            uoff = off[upos]
            fronts = self._fifo_flat[uoff * self._Dp + self._fhead[uoff]]
            if np.bitwise_or.reduce(fronts) & IDX_MASK:
                k = int(((fronts & IDX_MASK) != 0).nonzero()[0][0])
                raise RuntimeError(
                    f"body flit without worm latch at "
                    f"{self._cn.ch_key(int(rc[upos[k]]))} "
                    f"(packet {int(fronts[k]) >> PID_SHIFT})"
                )
            urc = uoff if rb is None else rc[upos]
            rows = self._route_rows.take(urc, axis=0)  # fancy 2-D rows are ~10x slower
            port = self._ports_flat[rows[:, 0] + ((fronts >> DEST_SHIFT) & DEST_MASK)]
            out = self._lutv[rows[:, 1] + port]
            if np.minimum.reduce(out) < 0:
                # -1: no usable entry; the table's own lookup raises
                for k in (out < 0).nonzero()[0].tolist():
                    dest = (int(fronts[k]) >> DEST_SHIFT) & DEST_MASK
                    ch = int(urc[k])
                    out[k] = self._slow_route(ch, dest) + ch % self.V
            ro[upos] = out
        return off, rb, rc, ro, unl, upos

    def _allocate(self, req) -> tuple[np.ndarray, int]:
        """Grant outputs: every latched worm whose output has space, then one
        round-robin winner per free output among the heads that want it.
        Returns the granted request positions, latched grants first, and
        where the heads (exactly the winners) start."""
        off, rb, rc, ro, unl, upos = req
        key = ro if rb is None else off + (ro - rc)  # == rb*C + desired output
        # ejection channels never hold flits, so their space check passes
        sp = self._fifo_len[key] < self.D
        if self._ch_up is not None:
            sp &= self._ch_up[key]  # a down output grants nothing
        # a latched worm holds its output (the holder is its own channel)
        grants = (sp & ~unl).nonzero()[0]
        if not upos.size:
            return grants, grants.size
        hkey = key[upos]
        ok = (self._holder[hkey] < 0) & sp[upos]
        fpos = upos[ok]
        if not fpos.size:
            return grants, grants.size
        fkey = hkey[ok]
        if fpos.size == 1:
            winners = fpos
            gkeys = fkey
        else:
            # free-output head requests grouped by (replica, output) in
            # ascending channel order, so round-robin arbitration picks the
            # reference engine's winner; lone requesters win trivially
            order, gstart, gkeys = _group_by_key(fkey, self._gbits)
            counts = np.empty(gstart.size, dtype=np.intp)
            np.subtract(gstart[1:], gstart[:-1], out=counts[:-1])
            counts[-1] = fkey.size - gstart[-1]
            winners = fpos[order[gstart + self._rr[gkeys] % counts]]
        self._rr[gkeys] += 1
        self._holder[gkeys] = rc[winners]
        return np.concatenate((grants, winners)), grants.size

    def _traverse(self, req, gsel: np.ndarray, heads: int):
        """Traverse and eject: pop each granted flit, latch heads and unlatch
        tails, count link flits and deliver what reached an end node.

        Returns the deferred FIFO pushes ``(channels, codes)`` and the
        grants per replica (a count with one replica).  Grant order is
        immaterial: every scatter target is unique per cycle, and
        deliveries are explicitly re-sorted.
        """
        off, rb, rc, ro, unl, upos = req
        b1 = rb is None
        V = self.V
        bfc = off[gsel]
        go = ro[gsel]
        if b1:
            gb = None
            okey = go  # local channel == flat channel for one replica
        else:
            gb = rb[gsel]
            okey = bfc + (go - rc[gsel])  # flat index of each grant's output
        hd = self._fhead[bfc]
        codes = self._fifo_flat[bfc * self._Dp + hd]
        if heads < gsel.size:
            self._cur_out[bfc[heads:]] = go[heads:]  # winning heads latch
        self._fhead[bfc] = (hd + 1) & (self._Dp - 1)  # ring-buffer pop
        self._fifo_len[bfc] -= 1
        tpos = _is_tail(codes).nonzero()[0]
        if tpos.size:
            self._cur_out[bfc[tpos]] = -1
            self._holder[okey[tpos]] = -1
        li = go // V if V > 1 else go
        self._lf_pend.append(li if b1 else gb * self.L + li)
        em = self._ch_end[go]
        if b1:
            self._fdel[0] += np.count_nonzero(em)
            granted = gsel.size
        else:
            # one bincount keyed on (replica, end?) counts grants and
            # deliveries together
            both = np.bincount(gb * 2 + em, minlength=2 * self.B)
            self._fdel += both[1::2]
            granted = both[0::2] + both[1::2]
        if tpos.size:
            dmi = tpos[em[tpos]]
            if dmi.size:
                self._deliver(dmi, gb, go, codes)
        push = ~em
        return (okey[push], codes[push]), granted

    def _deliver(self, dmi, gb, go, codes) -> None:
        """Stamp the packets whose tails reached an end node, in the order
        the reference appends latencies: sorted by (replica, output
        channel), whose ints sort exactly like the reference's keys."""
        cycle = self._cycle
        dgo = go[dmi]
        dp = codes[dmi] >> PID_SHIFT
        if gb is None:
            if dmi.size > 1:
                dp = dp[dgo.argsort()]  # unique keys
            self._pdel[0][dp] = cycle
            self._pd[0] += dp.size
            if self.recovery is not None:
                on_delivered = self.recovery.on_delivered
                for pid in dp.tolist():
                    on_delivered(pid, cycle)
        else:
            dbg = gb[dmi]
            order = (dbg * self.C + dgo).argsort()  # unique keys
            db = dbg[order]
            dp = dp[order]
            self._pdel.reshape(-1)[db * self._pcap + dp] = cycle
            self._pd += np.bincount(db, minlength=self.B)
            self._del_b.append(db)
        self._del_pid.append(dp)

    def _push(self, ipos: np.ndarray, push, popped: bool):
        """Inject, second half, then one fused FIFO push and active-set
        upkeep.

        Sources ``ipos`` send their latched flit; injections join the
        traverse pushes in one scatter (injection channels never receive
        traverse pushes, so the targets stay unique).  Returns the flits
        injected per replica (a count with one replica).
        """
        b1 = self.B == 1
        scan = self._scan
        injected = 0 if b1 else None
        lpos = None
        if ipos.size:
            S = self.S
            sflat = self._sflat
            codes = sflat[ipos]
            if b1:
                isr = ipos
            else:
                ib = ipos // S
                isr = ipos - ib * S
            io = self._inj_ch[isr]
            heads = (codes & IDX_MASK) == 0
            hp = codes[heads]
            if hp.size:
                # sequence stamps were precomputed at admission (_pair_rank)
                hp >>= PID_SHIFT
                if b1:
                    self._pinj[0][hp] = self._cycle
                    self._pi[0] += hp.size
                    if self.recovery is not None:
                        self._sent(hp)
                else:
                    hb = ib[heads]
                    self._pinj.reshape(-1)[hb * self._pcap + hp] = self._cycle
                    self._pi += np.bincount(hb, minlength=self.B)
            li = self._inj_link[isr]
            self._lf_pend.append(li if b1 else ib * self.L + li)
            last = _is_tail(codes)
            sflat[ipos] = np.where(last, -1, codes + 1)
            if b1:
                nlast = np.count_nonzero(last)
                if nlast:
                    self._backlog[0] -= nlast
                    if not scan:
                        lpos = ipos[last]
                injected = ipos.size
            else:
                # one bincount keyed on (replica, last?) counts injections
                # and packet completions together
                ibl = np.bincount(ib * 2 + last, minlength=2 * self.B)
                self._backlog -= ibl[1::2]
                if not scan:
                    lpos = ipos[last]
                injected = ibl[0::2] + ibl[1::2]
            bfo = io if b1 else ib * self.C + io
            if push is None:
                push = (bfo, codes)
            else:
                push = (
                    np.concatenate((push[0], bfo)),
                    np.concatenate((push[1], codes)),
                )
        occ_fresh = None
        if push is not None and push[0].size:
            push_ch, push_codes = push
            fl_o = self._fifo_len[push_ch]
            slot = (self._fhead[push_ch] + fl_o) & (self._Dp - 1)
            self._fifo_flat[push_ch * self._Dp + slot] = push_codes
            self._fifo_len[push_ch] = fl_o + 1
            if not scan:
                # a push occupies its channel iff it found it empty AND the
                # channel is not already a member (popped-to-zero inputs
                # that were re-filled this cycle stay in the set)
                occ_fresh = push_ch[(fl_o == 0) & ~self._occ_mask[push_ch]]
        if not scan:
            self._upkeep(popped, occ_fresh, lpos)
        return injected

    def _upkeep(self, popped: bool, occ_fresh, lpos) -> None:
        """Index mode: drop drained channels from the sorted occupied set,
        merge in the freshly occupied ones, and disarm sources left with
        no work.  Cost scales with what the cycle moved, never with B*C."""
        occ = self._occ_idx
        if popped:
            # only popped channels can empty, and every pop is in occ
            keep = self._fifo_len[occ] > 0
            if np.count_nonzero(keep) < keep.size:
                self._occ_mask[occ[~keep]] = False
                occ = occ[keep]
        if occ_fresh is not None and occ_fresh.size:
            self._occ_mask[occ_fresh] = True
            occ_fresh.sort()
            # two-sorted-array merge (np.insert pays an argsort)
            at = np.searchsorted(occ, occ_fresh)
            at += np.arange(occ_fresh.size)
            merged = np.empty(occ.size + occ_fresh.size, dtype=np.intp)
            merged[at] = occ_fresh
            hole = np.ones(merged.size, dtype=bool)
            hole[at] = False
            merged[hole] = occ
            occ = merged
        self._occ_idx = occ
        if lpos is not None and lpos.size:
            # only sources that injected their worm's last flit this cycle
            # can disarm: every other armed source still holds a latched
            # code (armed = latched-or-queued, and the latch converts
            # queued-only sources on sight)
            dis = lpos[self._qstart[lpos] >= self._qtail[lpos]]
            if dis.size:
                self._armed_mask[dis] = False
                am = self._armed_idx
                self._armed_idx = am[self._armed_mask[am]]

    def _account(self, act, all_alive: bool, req, gsel, granted, injected) -> None:
        """Progress, peak occupancy, stall counters and deadlock detection,
        then advance the clock of every stepped replica."""
        cycle = self._cycle
        cfg = self.config
        check = cycle % cfg.deadlock_check_interval == 0 and req is not None
        # two chunks a cycle: fold every 128 cycles, which bounds the
        # pending intp indices to a few MB at saturation
        if len(self._lf_pend) >= 256:
            self._flush_lf()
        if self.B == 1:
            moved = (granted or 0) + injected
            self._fmoved[0] += moved
            occ0 = np.count_nonzero(self._fifo_len) if self._scan else self._occ_idx.size
            if occ0 > self._peak[0]:
                self._peak[0] = occ0
            det1 = det2 = False
            if not moved and (occ0 or self._pi[0] > self._pd[0]):
                self._stall[0] += 1
                det1 = self._stall[0] >= cfg.stall_threshold
            else:
                self._stall[0] = 0
                det2 = check and (granted or 0) < req[0].size
            if det1 or det2:
                self._detect(
                    np.array([det1]), np.array([det2]) if check else None, req, gsel
                )
            self._cyc[0] += 1
            self._cycle = cycle + 1
            return
        B = self.B
        moved = np.zeros(B, dtype=np.int64)
        if granted is not None:
            moved += granted
        if injected is not None:
            moved += injected
        self._fmoved += moved
        if self._scan:
            occ_cnt = np.add.reduce(self._fl2 > 0, axis=1)
        elif self._occ_idx.size:
            occ_cnt = np.bincount(self._occ_idx // self.C, minlength=B)
        else:
            occ_cnt = np.zeros(B, dtype=np.int64)
        if all_alive:
            np.maximum(self._peak, occ_cnt, out=self._peak)
        else:
            upd = act & (occ_cnt > self._peak)
            self._peak[upd] = occ_cnt[upd]
        stallm = act & (moved == 0) & ((self._pi > self._pd) | (occ_cnt > 0))
        self._stall[stallm] += 1
        nonstall = act & ~stallm
        self._stall[nonstall] = 0
        det1 = stallm & (self._stall >= cfg.stall_threshold)
        det2 = None
        if check:
            n_desire = np.bincount(req[1], minlength=B)
            det2 = nonstall & ((0 if granted is None else granted) < n_desire)
        if np.count_nonzero(det1) or (det2 is not None and np.count_nonzero(det2)):
            self._detect(det1, det2, req, gsel)
        self._cyc[act] += 1
        self._cycle = cycle + 1

    def _detect(self, det1, det2, req, gsel) -> None:
        """Run deadlock detection on this cycle's requests and grants."""
        if req is None:
            off = rc = ro = rb = _EMPTYP
        else:
            off, rb, rc, ro = req[:4]
            if rb is None:
                rb = np.zeros_like(off)
        gb = gc = None
        if gsel is not None and gsel.size:
            gb, gc = rb[gsel], rc[gsel]
        self._run_detections(det1, det2, rb, rc, ro, gb, gc, self._cycle)

    # ------------------------------------------------------------------
    def _slow_route(self, ch: int, dest_idx: int) -> int:
        """Resolve a ``-1`` next-channel lookup through the original table,
        preserving the reference engine's diagnostics (cf. SimCore)."""
        cn = self._cn
        router = cn.link_dst[ch // self.V]
        dest = cn.end_ids[dest_idx]
        port = self.tables.lookup(router, dest)
        out_link = self.net.out_link_on_port(router, port)
        return cn.link_index[out_link.link_id] * self.V

    def _run_detections(self, det1, det2, rb, rc, ro, gb, gc, cycle: int) -> None:
        """Deadlock detection across all flagged replicas in one pass
        (:func:`_wait_for_cycles`).  Only replicas that actually close a
        cycle (rare) take the exact ``WaitForGraph`` path, which
        reproduces the reference engine's reporting verbatim."""
        flagged = det1 if det2 is None else (det1 | det2)
        cyclic = _wait_for_cycles(
            self.C, det1, det2, rb, rc, ro, gb, gc, self._fifo_len
        )
        for b in np.flatnonzero(flagged).tolist():
            if b in cyclic:
                self._report_deadlock(b, cyclic[b], cycle)
            elif (
                det1[b]
                and self._stall[b] >= 10 * self.config.stall_threshold
                and self.recovery is None
            ):
                # with recovery a long stall is legitimate: worms blocked at
                # a down link wait for their timeout or the table swap
                raise RuntimeError(
                    f"simulation stalled {int(self._stall[b])} cycles without "
                    f"a wait-for cycle at cycle {cycle}; "
                    f"in_flight={int(self._pi[b] - self._pd[b])}"
                )

    def _report_deadlock(self, b: int, desires: dict[int, int], at: int) -> None:
        """Exact wait-for-graph reporting for one deadlocked replica."""
        cfg = self.config
        cn = self._cn
        base = b * self.C
        wfg = WaitForGraph()
        for ch, out in desires.items():
            wfg.add_wait(
                cn.ch_str(ch),
                cn.ch_str(out),
                packet=int(self._fifo[base + ch, self._fhead[base + ch]])
                >> PID_SHIFT,
            )
        cyc = wfg.find_deadlock()
        if cyc is not None:
            self._dl_cycle[b] = cyc
            self._dl_at[b] = at
            self._alive[b] = False
            if cfg.raise_on_deadlock:
                raise DeadlockDetected(cyc, wfg.blocked_packets(cyc), at)
        elif (
            self._stall[b] >= 10 * cfg.stall_threshold and self.recovery is None
        ):  # pragma: no cover
            raise RuntimeError(
                f"simulation stalled {int(self._stall[b])} cycles without a "
                f"wait-for cycle at cycle {at}; "
                f"in_flight={int(self._pi[b] - self._pd[b])}"
            )

    # ------------------------------------------------------------------
    # recovery surface (a lone core; see repro.sim.recovery.RecoverySurface)
    # ------------------------------------------------------------------
    def _lone(self, what: str) -> None:
        if self.B != 1:
            raise ValueError(
                f"{what} needs a lone core (B = 1); this one runs {self.B} replicas"
            )

    def _recover(self) -> None:
        """Apply the link state changes due by now, then the recovery
        actions due this cycle (the compiled core's order)."""
        cycle = self._cycle
        events = self._fault_events
        ptr = self._fault_ptr
        if ptr < len(events):
            V = self.V
            while ptr < len(events) and events[ptr][0] <= cycle:
                _, li, down = events[ptr]
                self._ch_up[li * V : li * V + V] = not down
                ptr += 1
            self._fault_ptr = ptr
        if self.recovery is not None:
            self.recovery.before_cycle(self, cycle)

    def _sent(self, pids: np.ndarray) -> None:
        """Recovery bookkeeping for the heads injected this cycle: number
        each by its pair's injections so far, as the scalar NICs do (a
        retry re-injects out of creation order), and arm its timeout.  A
        source injects at most one head per cycle, so the pairs differ."""
        cycle = self._cycle
        S = self.S
        src, dst, seq = self._psrc[0], self._pdst[0], self._pseq[0]
        sent = self._pair_sent
        on_injected = self.recovery.on_injected
        for pid in pids.tolist():
            key = int(src[pid]) * S + int(dst[pid])
            n = sent.get(key, 0)
            sent[key] = n + 1
            seq[pid] = n
            on_injected(pid, cycle)

    def _worm_latches(self, pid: int, starts: list[int]) -> list[int]:
        """The channels whose worm latch belongs to packet ``pid``.

        A worm's latches form one path along ``cur_out`` from its
        tail-most flit to its head, so walking from every channel holding
        its flits, and from its injection channel while its source still
        serializes it, covers them all.  A latched channel is the worm's
        when its front flit is the worm's, or when it is empty: the worm
        holds the output into it, so no other worm's flits can be on
        their way there.
        """
        cur_out, fl = self._cur_out, self._fifo_len
        fifo, fhead = self._fifo, self._fhead
        chain: list[int] = []
        seen: set[int] = set()
        for ch in starts:
            while (
                ch not in seen
                and cur_out[ch] >= 0
                and (not fl[ch] or int(fifo[ch, fhead[ch]]) >> PID_SHIFT == pid)
            ):
                seen.add(ch)
                chain.append(ch)
                ch = int(cur_out[ch])
        return chain

    def drop_packet(self, packet_id: int, at_cycle: int | None = None) -> int:
        """Remove every trace of a packet's worm from a lone core.

        The NIC-timeout cleanup, as on the scalar engines: the worm's
        latches are released (with the outputs they hold), its flits are
        purged from the input FIFOs in order, and its source drops the
        rest of the packet.  Returns the number of flits dropped, which
        also accrues in ``recovery_stats.flits_dropped``.  An injected
        worm leaves the in-flight census here; the scalar engines leave
        that to the manager's retry/drop/failover counters.  ``at_cycle``
        is accepted for the engines' common signature.
        """
        self._lone("drop_packet")
        pid = packet_id
        fifo, fhead, fl = self._fifo, self._fhead, self._fifo_len
        wrap = self._Dp - 1
        # its flits: rows holding its pid in any slot, live or stale (a
        # popped slot keeps its old code), then each row's live prefix
        occ = self._occ_idx if not self._scan else fl.nonzero()[0]
        rows = occ[((fifo[occ] >> PID_SHIFT) == pid).any(axis=1)].tolist()
        purge: list[tuple[int, list[int], int]] = []
        for ch in rows:
            h, n = int(fhead[ch]), int(fl[ch])
            slots = fifo[ch].tolist()
            live = [slots[(h + i) & wrap] for i in range(n)]
            kept = [c for c in live if c >> PID_SHIFT != pid]
            if len(kept) < n:
                purge.append((ch, kept, n))
        src = int(self._psrc[0, pid])
        starts = [ch for ch, _, _ in purge]
        code = int(self._sflat[src])
        cursor = 0
        if code >= 0 and code >> PID_SHIFT == pid:
            # flits still to serialize: size - index
            cursor = ((code >> SIZE_SHIFT) & SIZE_MASK) - (code & IDX_MASK)
            starts.append(int(self._inj_ch[src]))
        # latches first: the walk reads the fronts the purge rewrites
        cur_out, holder = self._cur_out, self._holder
        for ch in self._worm_latches(pid, starts):
            out = cur_out[ch]
            if holder[out] == ch:
                holder[out] = -1
            cur_out[ch] = -1
        dropped = cursor
        emptied = []
        for ch, kept, n in purge:
            dropped += n - len(kept)
            fifo[ch, : len(kept)] = kept
            fhead[ch] = 0
            fl[ch] = len(kept)
            if not kept:
                emptied.append(ch)
        if emptied and not self._scan:
            self._occ_mask[emptied] = False
            self._occ_idx = self._occ_idx[self._occ_mask[self._occ_idx]]
        if cursor:
            self._sflat[src] = -1
            self._backlog[0] -= 1
            if not self._scan and self._qstart[src] >= self._qtail[src]:
                self._armed_mask[src] = False
                self._armed_idx = self._armed_idx[self._armed_mask[self._armed_idx]]
        if self._pinj[0, pid] >= 0 and self._pdel[0, pid] < 0:
            self._pi[0] -= 1
            self._killed[0] += 1
        self._stall[0] = 0  # freed resources; give movement a fresh window
        self.recovery_stats.flits_dropped += dropped
        return dropped

    def requeue(self, packet_id: int) -> None:
        """Queue a timed-out packet at its source again (a retry): it goes
        behind every packet already admitted there and ahead of later
        arrivals, whose pre-generated queue entries shift back one."""
        self._lone("requeue")
        pid = packet_id
        src = int(self._psrc[0, pid])
        code = (
            (pid << PID_SHIFT)
            | (int(self._pdst[0, pid]) << DEST_SHIFT)
            | (int(self._psize[0, pid]) << SIZE_SHIFT)
        )
        t, f = int(self._qtail[src]), int(self._qfill[src])
        if f >= self._qw:
            grow = max(1, self._qw // 4)
            self._qcodes = np.pad(self._qcodes, ((0, 0), (0, grow)))
            self._qflat, self._qw = self._qcodes.reshape(-1), self._qw + grow
        row = self._qcodes[src]
        row[t + 1 : f + 1] = row[t:f].copy()
        row[t] = code
        self._qtail[src] = t + 1
        self._qfill[src] = f + 1
        self._backlog[0] += 1
        self._pinj[0, pid] = -1
        if not self._scan and not self._armed_mask[src]:
            self._armed_mask[src] = True
            self._armed_idx = np.append(self._armed_idx, src)

    def swap_tables(self, tables: RoutingTable) -> None:
        """Atomically install new routing tables: one replacement of the
        port matrix, the LUT and the row offsets.  Latched worms keep
        their outputs; heads route by the new tables from now on."""
        self.tables = tables
        self._install_routes(tables)
        self.recovery_stats.table_swaps += 1
        self._stall[:] = 0

    def packet_info(self, packet_id: int) -> tuple[str, str, int, int]:
        """The packet's ``(src, dst, size, created)`` on a lone core."""
        ends = self._cn.end_ids
        pid = packet_id
        return (
            ends[int(self._psrc[0, pid])],
            ends[int(self._pdst[0, pid])],
            int(self._psize[0, pid]),
            int(self._pcreated[0, pid]),
        )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _delivery_order(self) -> list[np.ndarray]:
        if self._dord is not None and self._dord_n == len(self._del_pid):
            return self._dord
        if self.B == 1:
            # the single-replica step skips per-chunk replica labels:
            # everything delivered belongs to replica 0, already in order
            self._dord = [
                np.concatenate(self._del_pid)
                if self._del_pid
                else np.empty(0, dtype=np.int64)
            ]
        elif self._del_b:
            db = np.concatenate(self._del_b)
            dp = np.concatenate(self._del_pid)
            order = np.argsort(db, kind="stable")
            sdb = db[order]
            sdp = dp[order]
            bounds = np.searchsorted(sdb, np.arange(self.B + 1))
            self._dord = [sdp[bounds[i] : bounds[i + 1]] for i in range(self.B)]
        else:
            empty = np.empty(0, dtype=np.int64)
            self._dord = [empty] * self.B
        self._dord_n = len(self._del_pid)
        return self._dord

    def _violations(self, b: int) -> list[str]:
        pids = self._delivery_order()[b]
        if not pids.size:
            return []
        src = self._psrc[b, pids]
        dst = self._pdst[b, pids]
        seq = self._pseq[b, pids]
        pair = dst * np.int64(self.S) + src
        order = np.argsort(pair, kind="stable")
        sp = pair[order]
        sq = seq[order]
        same = sp[1:] == sp[:-1]
        if not (same & (sq[1:] <= sq[:-1])).any():
            return []
        # exact replay of SinkState's per-sink bookkeeping: a delivery is
        # out of order when its sequence does not exceed the largest one its
        # (sink, source) pair delivered before it.  An offset per pair keeps
        # one running maximum from crossing into the next pair.
        first = np.ones(sp.size, dtype=bool)
        first[1:] = ~same
        group = np.cumsum(first) - 1
        top = int(sq.max()) + 2
        runmax = np.maximum.accumulate(sq + group * top)
        lastv = np.full(sp.size, -1, dtype=np.int64)
        lastv[1:] = runmax[:-1] - group[1:] * top
        bad = sq <= lastv
        # reported sink by sink, each in delivery order
        pos, lastv = order[bad], lastv[bad]
        k = np.argsort(dst[pos].astype(np.int64) * pids.size + pos)
        pos, lastv = pos[k], lastv[k]
        ends = self._cn.end_ids
        return [
            f"out-of-order: {ends[s_]}->{ends[d]} seq {q} after {last} (cycle {c})"
            for s_, d, q, last, c in zip(
                src[pos].tolist(),
                dst[pos].tolist(),
                seq[pos].tolist(),
                lastv.tolist(),
                self._pdel[b, pids[pos]].tolist(),
            )
        ]

    def stats_of(self, b: int) -> SimStats:
        """Materialize replica ``b``'s stats (bit-identical to a solo run)."""
        self._flush_lf()
        stats = SimStats()
        stats.cycles = int(self._cyc[b])
        stats.packets_offered = int(self._offered[b])
        stats.packets_injected = int(self._pi[b] + self._killed[b])
        stats.packets_delivered = int(self._pd[b])
        stats.flits_moved = int(self._fmoved[b])
        stats.flits_delivered = int(self._fdel[b])
        stats.peak_occupied_buffers = int(self._peak[b])
        pids = self._delivery_order()[b]
        if pids.size:
            lat = self._pdel[b, pids] - self._pcreated[b, pids]
            stats.latencies.extend(lat.tolist())
        link_ids = self._cn.link_ids
        row = self._lf[b]
        for li in np.flatnonzero(row):
            stats.link_flits[link_ids[int(li)]] = int(row[li])
        stats.deadlock_cycle = (
            list(self._dl_cycle[b]) if self._dl_cycle[b] is not None else None
        )
        stats.deadlock_at = self._dl_at[b]
        stats.in_order_violations = self._violations(b)
        rs = self.recovery_stats  # all zero but on a lone recovering core
        stats.packets_retried = rs.packets_retried
        stats.packets_dropped = rs.packets_dropped
        stats.packets_failed_over = rs.packets_failed_over
        stats.failover_latencies.extend(rs.failover_latencies)
        stats.flits_dropped = rs.flits_dropped
        stats.table_swaps = rs.table_swaps
        stats.reconvergence_cycles = list(rs.reconvergence_cycles)
        return stats

    def finalize(self) -> list[SimStats]:
        """Flush stamps into any original Packet objects and collect stats."""
        for b, st in enumerate(self._streams):
            if st.orig:
                self._flush_orig(b, st)
        return [self.stats_of(b) for b in range(self.B)]

    def _flush_orig(self, b: int, st: _Stream) -> None:
        created = self._pcreated[b]
        for pid, packet in st.orig.items():
            if created[pid] < 0:
                continue
            inj = int(self._pinj[b, pid])
            if inj >= 0:
                packet.injected = inj
                packet.sequence = int(self._pseq[b, pid])
            dlv = int(self._pdel[b, pid])
            if dlv >= 0:
                packet.delivered = dlv

    def _issued(self, b: int) -> int:
        """Replica ``b``'s packet-id bound: ids below it may be admitted."""
        st = self._streams[b]
        return st.next_pid if st.plan is not None else self._pcap

    def packet_records(self, b: int) -> PacketRecords:
        """Replica ``b``'s admitted packets as ``(created, delivered,
        size)`` columns in packet-id order -- the records of a vectorized
        :class:`~repro.sim.api.RunResult`, built without Packet objects."""
        n = self._issued(b)
        sel = np.flatnonzero(self._pcreated[b, :n] >= 0)
        return PacketRecords(
            *(a[b, sel].astype(np.int64) for a in (self._pcreated, self._pdel, self._psize))
        )

    def packet_source(self, b: int) -> dict[int, Packet] | Callable[[], dict[int, Packet]]:
        """What :meth:`packets_of` returns, deferred where that pays.

        A generator stream gives its stamped original packets.  A uniform
        stream gives a picklable zero-argument builder over views of the
        replica's packet columns: it copies nothing while the core lives,
        pickles only the replica's rows, and pays for ``Packet`` objects
        only when called.
        """
        st = self._streams[b]
        if st.orig is not None:
            self._flush_orig(b, st)
            created = self._pcreated[b]
            return {
                pid: pkt for pid, pkt in st.orig.items() if created[pid] >= 0
            }
        n = self._issued(b)
        columns = (self._pcreated, self._psrc, self._pdst, self._psize,
                   self._pseq, self._pinj, self._pdel)
        return functools.partial(_packet_dict, self._cn.end_ids, *(a[b, :n] for a in columns))

    def packets_of(self, b: int) -> dict[int, Packet]:
        """Reference-shaped ``packets`` dict for replica ``b``.

        Generic streams return (and stamp) the original objects; uniform
        fast-path streams materialize equivalent ``Packet`` objects from
        the arrays on demand.
        """
        source = self.packet_source(b)
        return source if isinstance(source, dict) else source()


def _packet_dict(ends, created, src, dst, size, seqs, inj, dlv) -> dict[int, Packet]:
    """Packet objects for one uniform replica's admitted packets, from its
    packet columns indexed by packet id.

    The sequence column is the creation rank within the (src, dst) pair
    -- what ``_pair_rank`` stamped at admission -- which matches both the
    injection-time number (FIFO sources) and ``SequenceCounter.make``'s
    creation-order stamp for packets that never injected.
    """
    out: dict[int, Packet] = {}
    for pid in np.flatnonzero(created >= 0).tolist():
        out[pid] = Packet(
            pid,
            ends[int(src[pid])],
            ends[int(dst[pid])],
            int(size[pid]),
            created=int(created[pid]),
            sequence=int(seqs[pid]),
            injected=None if inj[pid] < 0 else int(inj[pid]),
            delivered=None if dlv[pid] < 0 else int(dlv[pid]),
        )
    return out


class VecSim:
    """Single-run adapter over a ``B = 1`` :class:`VecCore`.

    This is what :func:`repro.sim.api.make_sim` builds when the engine
    decision picks ``"vectorized"``: the reference-shaped attribute
    surface (``run``/``finalize``/``stats``/``packets``/``cycle``) over
    one replica, so parity checks and the sweep machinery stay oblivious.
    The ``fault``, ``failover`` and ``recovery`` hooks go to the core,
    which runs fault schedules and the recovery manager itself.
    """

    engine = "vectorized"

    def __init__(
        self,
        net: Network,
        tables: RoutingTable,
        traffic: "TrafficGenerator | UniformPlan",
        config: SimConfig | None = None,
        *,
        fault: FaultSchedule | None = None,
        failover: "FailoverPlan | None" = None,
        recovery: "RecoveryManager | None" = None,
    ) -> None:
        self.net = net
        self.config = config or SimConfig()
        self.traffic = traffic
        self.vc_select = None
        self.route_override = None
        self.on_deliver = None
        self.trace = None
        self.probe = None
        self.core = VecCore(
            net, tables, [traffic], self.config, fault=fault, failover=failover,
            recovery=recovery,
        )
        self.fault = fault
        self.recovery = self.core.recovery
        self._stats: SimStats | None = None
        self._stats_at = -1

    @property
    def tables(self) -> RoutingTable:
        """The routing tables in force (a recovery swap replaces them)."""
        return self.core.tables

    def drop_packet(self, packet_id: int, at_cycle: int | None = None) -> int:
        """:meth:`VecCore.drop_packet` on the lone replica."""
        self._stats = None
        return self.core.drop_packet(packet_id, at_cycle)

    @property
    def cycle(self) -> int:
        return self.core.cycle_of(0)

    @property
    def stats(self) -> SimStats:
        if self._stats is None or self._stats_at != self.cycle:
            self._stats = self.core.stats_of(0)
            self._stats_at = self.cycle
        return self._stats

    @property
    def packets(self) -> dict[int, Packet]:
        return self.core.packets_of(0)

    @property
    def in_flight(self) -> int:
        return int(self.core.in_flight[0])

    @property
    def backlog(self) -> int:
        return int(self.core._backlog[0])

    def run(self, max_cycles: int, drain: bool = False) -> SimStats:
        self._stats = self.core.run(max_cycles, drain=drain)[0]
        self._stats_at = self.cycle
        return self._stats

    def finalize(self) -> SimStats:
        # ``run`` already finalized the core; nothing has moved since
        if self._stats is None or self._stats_at != self.cycle:
            self._stats = self.core.finalize()[0]
            self._stats_at = self.cycle
        return self._stats

    def link_flit_snapshot(self) -> dict[str, int]:
        link_ids = self.core._cn.link_ids
        self.core._flush_lf()
        row = self.core._lf[0]
        return {link_ids[int(li)]: int(row[li]) for li in np.flatnonzero(row)}

    def occupied_buffer_count(self) -> int:
        return int((self.core._fifo_len.reshape(1, -1) > 0).sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VecSim cycle={self.cycle}>"
