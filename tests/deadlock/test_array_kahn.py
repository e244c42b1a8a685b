"""The array Kahn pass gives exactly the deque Kahn pass's answers.

``deque_kahn`` is the FIFO Kahn pass the certifiers ran on Python dicts:
it starts from the sorted zero-in-degree channels and visits each
channel's successors in sorted order.  It stays here as the oracle for
:func:`repro.deadlock.certifier._kahn`, the level-synchronous numpy pass
both certifiers share: on random acyclic and cyclic dependency sets, on
every registered topology and on the depth-4 ``d4_cold`` certification
sample, the certificate order, the final in-degrees and the extracted
counterexample must be the oracle's.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deadlock.certifier import (
    _extract_cycle,
    _kahn,
    _stalled_successors,
    certify_channel_order,
)
from repro.routing.base import all_pairs_routes
from repro.routing.cache import cached_tables
from repro.routing.validate import validate_routing
from repro.sim.parallel import derive_seed
from repro.topology.registry import build_topology
from tests.routing.test_walk import PARAMS


def deque_kahn(channels: list, succ: dict) -> tuple[list, dict]:
    """Kahn's topological sort with a sorted start and sorted successors."""
    indegree: dict = {c: 0 for c in channels}
    for waiting in succ.values():
        for waited in waiting:
            indegree[waited] += 1
    ready = deque(sorted(c for c, d in indegree.items() if d == 0))
    order: list = []
    while ready:
        channel = ready.popleft()
        order.append(channel)
        for waited in sorted(succ.get(channel, ())):
            indegree[waited] -= 1
            if indegree[waited] == 0:
                ready.append(waited)
    return order, indegree


def oracle(n: int, deps: np.ndarray) -> tuple[list, list, tuple | None]:
    """Order, final in-degrees and counterexample from the deque pass."""
    succ: dict[int, set[int]] = {}
    for held, waited in deps.tolist():
        succ.setdefault(held, set()).add(waited)
    order, indegree = deque_kahn(list(range(n)), succ)
    cycle = None
    if len(order) < n:
        cycle = _extract_cycle({c for c in range(n) if indegree[c] > 0}, succ)
    return order, [indegree[c] for c in range(n)], cycle


def array(n: int, deps: np.ndarray) -> tuple[list, list, tuple | None]:
    order, indegree = _kahn(n, deps)
    cycle = None
    if order.size < n:
        cycle = _extract_cycle(*_stalled_successors(indegree, deps))
    return order.tolist(), indegree.tolist(), cycle


def _dedup(n: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    deps = np.array(sorted(set(pairs)), np.int64).reshape(-1, 2)
    return deps[np.random.default_rng(n).permutation(len(deps))]  # unsorted input


@st.composite
def dependency_sets(draw, acyclic: bool):
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, np.zeros((0, 2), np.int64)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
    if acyclic:
        # orient every edge along a random permutation: a DAG in any labels
        rank = draw(st.permutations(range(n)))
        pairs = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs if a != b]
    return n, _dedup(n, pairs)


@settings(max_examples=300, deadline=None)
@given(dependency_sets(acyclic=True))
def test_acyclic_sets_order_like_the_deque_pass(case):
    n, deps = case
    got = array(n, deps)
    assert got == oracle(n, deps)
    assert len(got[0]) == n and got[2] is None


@settings(max_examples=300, deadline=None)
@given(dependency_sets(acyclic=False))
def test_cyclic_sets_stall_like_the_deque_pass(case):
    n, deps = case
    assert array(n, deps) == oracle(n, deps)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, 3 * k - 1), min_size=1))
    )
)
def test_a_planted_cycle_behind_a_tail_is_found(case):
    # a ring 0 -> 1 -> ... -> k-1 -> 0 with acyclic channels hanging off it
    k, tails = case
    n = 3 * k
    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(t % k, k + j % (2 * k)) for j, t in enumerate(tails)]
    deps = _dedup(n, pairs)
    got = array(n, deps)
    assert got == oracle(n, deps)
    assert sorted(got[2]) == list(range(k))


def _certify_like_the_oracle(net, tables):
    routes = all_pairs_routes(net, tables)
    labels = sorted({link for route in routes for link in route.links})
    pos = {link: i for i, link in enumerate(labels)}
    pairs = [(pos[h], pos[w]) for r in routes for h, w in zip(r.links, r.links[1:])]
    deps = _dedup(len(labels), pairs)
    order, _, cycle = oracle(len(labels), deps)
    for result in (
        certify_channel_order(net, tables),
        certify_channel_order(net, routes=routes),
    ):
        assert result.num_dependencies == len(deps)
        if cycle is None:
            assert result.certificate.order == tuple(labels[c] for c in order)
        else:
            assert result.counterexample == tuple(labels[c] for c in cycle)


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_registered_topologies_certify_like_the_deque_pass(name):
    net = build_topology(name, **PARAMS[name])
    _certify_like_the_oracle(net, cached_tables(net))


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed, counts",
    [
        # the sample the CI depth-4 smoke certifies
        (1996, (24_678, 30_278)),
        # the d4_cold end-to-end workload's certify stage
        (derive_seed(1996, "d4_cold", "certify"), (24_617, 30_196)),
    ],
    ids=["ci", "d4_cold"],
)
def test_depth4_certification_sample(seed, counts):
    net = build_topology("fat_fractahedron", levels=4, fanout_width=2)
    tables = cached_tables(net)
    cert = certify_channel_order(net, tables, sample=4096, seed=seed)
    assert cert.certified
    assert (cert.num_channels, cert.num_dependencies) == counts
    walk = validate_routing(net, tables, sample=4096, seed=seed).walk
    deps = np.searchsorted(walk.channels, walk.dependencies)
    order, indegree, cycle = oracle(walk.channels.size, deps)
    assert cycle is None and not any(indegree)
    link_ids = net.indices().link_ids
    assert cert.certificate.order == tuple(link_ids[walk.channels[c]] for c in order)
