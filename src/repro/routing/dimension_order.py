"""Dimension-order routing for meshes, tori, rings, hypercubes and HyperX.

§2.2's deadlock-free baseline: *"packets are routed first in one
direction, say the X direction, then the Y direction"*.  A router corrects
the first coordinate that differs from the destination's, in a fixed
dimension order; completing one dimension before the next removes every
turn that could close a channel-dependency cycle in a mesh.
:class:`DimensionOrder` is that rule, once.  Per dimension the step is
``"step"`` (one position toward the target: a mesh), ``"ring"`` (one
position the shorter way round, ties toward +1: a torus or ring) or
``"jump"`` (straight to the target: a HyperX, or a hypercube bit flip).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.graph import Network
from repro.routing.base import RoutingError, RoutingTable, ejections, router_attrs

__all__ = ["DimensionOrder", "dimension_order_tables", "ecube_tables"]

_RULES = ("step", "ring", "jump")


class DimensionOrder:
    """Dimension-order next hops over a routers x dims coordinate array.

    Router index ``r`` sits at ``coords[r]`` (non-negative).  Dimensions are
    corrected in ``order``, each by its rule in ``rules``; a ``"ring"``
    dimension ``d`` has ``sizes[d]`` positions.  A hop takes the lowest-port
    link to the next router.
    """

    def __init__(
        self, net: Network, coords, order: Sequence[int], rules: Sequence[str], sizes=()
    ) -> None:
        self.net, self._order = net, list(order)
        ids = net.indices().router_ids
        coords = np.asarray(coords, dtype=np.int64).reshape(len(ids), len(self._order))
        # dimensions in routing order from here on
        self._c = c = coords[:, self._order]
        self._rule = np.array([_RULES.index(rules[d]) for d in self._order], dtype=np.int64)
        self._size = np.array([sizes[d] if rules[d] == "ring" else 1 for d in self._order])
        # mixed-radix coordinate keys over a box that holds every ring position
        self._radix = np.maximum(c.max(axis=0, initial=0) + 1, self._size)
        self._stride = np.cumprod(np.r_[1, self._radix[:0:-1]])[::-1]
        self._key = c @ self._stride
        self._at = np.full(int(self._radix.prod()), -1, dtype=np.int64)
        self._at[self._key] = np.arange(len(ids))
        shared = np.flatnonzero(self._at[self._key] != np.arange(len(ids)))
        if shared.size:
            a, b = shared[0], self._at[self._key[shared[0]]]
            raise RoutingError(f"routers {ids[a]!r} and {ids[b]!r} share a coordinate")
        # (src router * R + dst router) -> its lowest-port link, sorted,
        # with a sentinel past every key
        arr = net.link_arrays()
        rl = np.flatnonzero(arr.src_is_router & arr.dst_is_router)
        rl = rl[np.argsort(arr.src_port[rl], kind="stable")]
        pair = arr.src[rl].astype(np.int64) * len(ids) + arr.dst[rl]
        pairs, first = np.unique(pair, return_index=True)
        self._pairs = np.r_[pairs, np.iinfo(np.int64).max]
        self._links = np.r_[rl[first], -1]

    def _step(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """The routers off router ``target``'s coordinate, and the key of
        each one's next coordinate."""
        c = self._c
        diff = c != c[target]
        rows = np.flatnonzero(diff.any(axis=1))
        k = diff[rows].argmax(axis=1)
        here, there, size = c[rows, k], c[target, k], self._size[k]
        ring = (here + np.where((there - here) % size <= (here - there) % size, 1, -1)) % size
        new = np.choose(self._rule[k], (here + np.sign(there - here), ring, there))
        return rows, self._key[rows] + (new - here) * self._stride[k]

    def hops(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """``(nxt, link)`` per router toward router index ``target``: the
        next router (``target`` itself at ``target``, ``-1`` where no router
        sits at the next coordinate) and the lowest-port link to it (``-1``
        at ``target`` and wherever no cable joins the two)."""
        rows, key = self._step(target)
        nxt = np.full(self._c.shape[0], target, dtype=np.int64)
        nxt[rows] = self._at[key]
        q = rows * nxt.size + nxt[rows]
        pos = np.searchsorted(self._pairs, q)
        link = np.full(nxt.size, -1, dtype=np.int64)
        link[rows] = np.where((nxt[rows] >= 0) & (self._pairs[pos] == q), self._links[pos], -1)
        return nxt, link

    def missing_hop(self, target: int, r: int, dest: str) -> RoutingError:
        """The error for router index ``r``'s missing hop toward router
        index ``target``, on the way to ``dest``."""
        ids = self.net.indices().router_ids
        rows, key = self._step(target)
        key = key[np.searchsorted(rows, r)]
        if self._at[key] >= 0:
            return RoutingError(f"no link {ids[r]!r} -> {ids[self._at[key]]!r}")
        coord = np.empty(len(self._order), dtype=np.int64)
        coord[self._order] = np.unravel_index(key, self._radix)
        return RoutingError(
            f"no router at {tuple(coord.tolist())} on the route from {ids[r]!r} to {dest!r}"
        )

    def tables(self) -> RoutingTable:
        """Tables for every (router, end node) pair, one column per
        destination router shared by its ends.  Raises for the first
        destination end that some router (both in index order) has no hop
        toward."""
        net, table = self.net, RoutingTable(self.net)
        ej = ejections(net)
        if (ej.link < 0).any():
            ej.require(net, net.indices().end_ids[int(np.argmax(ej.link < 0))])  # raises
        targets, first, inverse = np.unique(ej.router, return_index=True, return_inverse=True)
        columns = np.empty((self._c.shape[0], targets.size), dtype=table.ports.dtype)
        src_port = net.link_arrays().src_port
        # destination routers in the order of their first end
        for j in np.argsort(first):
            target = int(targets[j])
            _, link = self.hops(target)
            fail = np.flatnonzero(link < 0)
            fail = fail[fail != target]
            if fail.size:
                raise self.missing_hop(target, int(fail[0]), net.indices().end_ids[first[j]])
            # the target's own row is the ejection port, written below
            columns[:, j] = src_port[link]
        np.take(columns, inverse.reshape(-1), axis=1, out=table.ports)
        table.ports[ej.router, np.arange(ej.router.size)] = ej.port
        return table


def dimension_order_tables(net: Network, order: Sequence[int] | None = None) -> RoutingTable:
    """Dimension-order tables for a mesh, torus or ring, correcting the
    dimensions in ``order`` (default ``0, 1, ...``).

    Routers carry ``coord`` tuples; ``attrs['shape']`` gives the sizes and
    ``attrs['wrap']`` the ring dimensions, where the shorter way round is
    taken (ties toward +1) -- *not* deadlock-free without virtual channels.
    """
    shape = net.attrs.get("shape")
    if shape is None:
        raise RoutingError("network has no 'shape' attribute (not a mesh/torus?)")
    dims = list(order) if order is not None else list(range(len(shape)))
    if sorted(dims) != list(range(len(shape))):
        raise RoutingError(f"order {dims} is not a permutation of dimensions")
    coords = router_attrs(net, "coord", "router {!r} has no 'coord' attribute")
    wrapped = set(net.attrs.get("wrap", ()))
    rules = ["ring" if d in wrapped else "step" for d in range(len(shape))]
    return DimensionOrder(net, coords, dims, rules, shape).tables()


def ecube_tables(net: Network, high_first: bool = False) -> RoutingTable:
    """E-cube tables for a hypercube: flip the lowest differing bit of the
    routers' integer ``haddr`` first (the highest with ``high_first``).

    ``attrs['dimensions']`` gives the cube order.  Both bit orders are
    deadlock-free; they stress different links.
    """
    ndim = net.attrs.get("dimensions")
    if ndim is None:
        raise RoutingError("network has no 'dimensions' attribute (not a hypercube?)")
    addrs = router_attrs(net, "haddr", "router {!r} has no 'haddr' attribute")
    # column b is address bit b, a width-2 dimension that "jump" flips
    bits = np.array(addrs, dtype=np.int64).reshape(-1, 1) >> np.arange(ndim) & 1
    order = range(ndim - 1, -1, -1) if high_first else range(ndim)
    return DimensionOrder(net, bits, order, ["jump"] * ndim).tables()
