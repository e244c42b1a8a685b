"""Property: the vectorized engine's wait-for cycle check is exact.

``_wait_for_cycles`` pointer-doubles over the compact graph of flagged
(replica, channel) requests.  Over random functional request graphs --
several replicas, random post-move empty buffers, stalled (``det1``) and
check-interval (``det2``) replicas mixed, granted requests dropped for
the ``det2``-only ones -- it must find a cycle in exactly the replicas
the dense ``(replicas, channels)`` next-pointer matrix finds one in, and
hand each the same desire dict, in the same channel order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.vec import _wait_for_cycles


def dense_wait_for_cycles(B, C, det1, det2, rb, rc, ro, gb, gc, fifo_len):
    """Reference: pointer doubling over a dense ``(flagged, C)`` matrix."""
    flagged = det1 if det2 is None else (det1 | det2)
    rows = np.flatnonzero(flagged)
    rowmap = np.full(B, -1, dtype=np.int64)
    rowmap[rows] = np.arange(rows.size)
    nxt = np.full((rows.size, C), -1, dtype=np.int32)
    sel = flagged[rb]
    nxt[rowmap[rb[sel]], rc[sel]] = ro[sel]
    if gb is not None and det2 is not None:
        g2 = (det2 & ~det1)[gb]
        if g2.any():
            nxt[rowmap[gb[g2]], gc[g2]] = -1
    nxt[fifo_len.reshape(B, C)[rows] <= 0] = -1
    rowbase = np.repeat(np.arange(rows.size, dtype=np.int32) * C, C)
    sub = nxt.reshape(-1)
    for _ in range(max(C, 2).bit_length() + 1):
        valid = sub >= 0
        if not valid.any():
            break
        hop = sub.take(rowbase + np.maximum(sub, 0))
        sub = np.where(valid, hop, np.int32(-1))
    has_cycle = (sub.reshape(rows.size, C) >= 0).any(axis=1)
    out = {}
    for i, b in enumerate(rows.tolist()):
        if has_cycle[i]:
            row = nxt[i]
            cs = np.flatnonzero(row >= 0)
            out[b] = dict(zip(cs.tolist(), row[cs].tolist()))
    return out


@st.composite
def detections(draw):
    B = draw(st.integers(1, 4))
    C = draw(st.integers(2, 40))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    occupied = np.array(draw(st.lists(st.booleans(), min_size=B * C, max_size=B * C)))
    off = np.flatnonzero(occupied).astype(dtype)  # (replica, channel)-sorted
    rb, rc = off // C, off % C
    ro = np.array(
        draw(st.lists(st.integers(0, C - 1), min_size=off.size, max_size=off.size)),
        dtype=dtype,
    )
    if draw(st.booleans()):
        # mostly channel c waits for c + 1: long chains, which pointer
        # doubling must follow to their end before calling them acyclic
        chain = np.array(
            draw(st.lists(st.booleans(), min_size=off.size, max_size=off.size)),
            dtype=bool,
        )
        ro[chain] = (rc[chain] + 1) % C
    # post-move lengths: a granted buffer may have emptied
    fifo_len = np.array(
        draw(st.lists(st.integers(0, 2), min_size=B * C, max_size=B * C)),
        dtype=np.int32,
    )
    det1 = np.array(draw(st.lists(st.booleans(), min_size=B, max_size=B)))
    det2 = draw(
        st.none() | st.lists(st.booleans(), min_size=B, max_size=B).map(np.array)
    )
    gb = gc = None
    granted = draw(st.lists(st.booleans(), min_size=off.size, max_size=off.size))
    if any(granted):
        gsel = np.flatnonzero(granted)
        # grants come out in allocation order, not channel order
        gsel = gsel[draw(st.permutations(range(gsel.size)))]
        gb, gc = rb[gsel], rc[gsel]
    return B, C, det1, det2, rb, rc, ro, gb, gc, fifo_len


@settings(deadline=None, max_examples=300)
@given(case=detections())
def test_compact_check_matches_dense_reference(case):
    B, C, *args = case
    assert _wait_for_cycles(C, *args) == dense_wait_for_cycles(B, C, *args)


def test_cycle_behind_a_tail_and_broken_by_a_grant():
    # replica 0: 0 -> 1 -> 2 -> 1 (a cycle with a tail), replica 1: the
    # same requests, but its granted 2 -> 1 edge is dropped (det2 only)
    C = 4
    rb = np.array([0, 0, 0, 1, 1, 1], dtype=np.int32)
    rc = np.array([0, 1, 2, 0, 1, 2], dtype=np.int32)
    ro = np.array([1, 2, 1, 1, 2, 1], dtype=np.int32)
    fifo_len = np.ones(2 * C, dtype=np.int32)
    det1 = np.array([True, False])
    det2 = np.array([False, True])
    gb, gc = np.array([1], dtype=np.int32), np.array([2], dtype=np.int32)
    args = (det1, det2, rb, rc, ro, gb, gc, fifo_len)
    assert _wait_for_cycles(C, *args) == {0: {0: 1, 1: 2, 2: 1}}
    assert dense_wait_for_cycles(2, C, *args) == {0: {0: 1, 1: 2, 2: 1}}
    # an emptied buffer waits for nothing
    fifo_len[1] = 0
    assert _wait_for_cycles(C, *args) == {}


def test_long_chain_is_not_a_cycle():
    # 62 -> 63 -> ... a 63-request chain into an idle channel, then the
    # same chain closed into a loop by its last request
    C = 64
    rc = np.arange(63, dtype=np.int32)
    rb = np.zeros_like(rc)
    ro = rc + 1
    fifo_len = np.ones(C, dtype=np.int32)
    args = (np.array([True]), None, rb, rc, ro, None, None, fifo_len)
    assert _wait_for_cycles(C, *args) == {}
    ro[-1] = 0
    assert _wait_for_cycles(C, *args) == {0: dict(zip(rc.tolist(), ro.tolist()))}
