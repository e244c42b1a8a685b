"""Both engines route from the table's own port matrix.

Neither the compiled nor the vectorized engine may copy the one-byte
``routers x ends`` port matrix, widened or not: each reads the next
channel as ``lut[r, ports[r, e]]`` over the table's ``ports`` (shared
memory, no copy), and holds no other array of that shape, of any dtype.
"""

import numpy as np
import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.routing.base import RoutingTable
from repro.routing.cache import cached_tables
from repro.sim.api import make_sim
from repro.sim.engine import SimConfig
from repro.sim.vec import UniformPlan


@pytest.mark.parametrize("engine", ["compiled", "vectorized"])
@pytest.mark.parametrize("frozen", [True, False], ids=["cached", "copy"])
def test_engine_holds_no_lowered_copy(engine, frozen):
    net = fat_fractahedron(2, fanout_width=2)
    tables = cached_tables(net)
    if not frozen:
        tables = tables.copy()
    sim = make_sim(net, tables, UniformPlan(0.02, 4, 3), SimConfig(engine=engine))
    sim.run(50)
    core = sim.core if engine == "vectorized" else sim
    assert tables.ports.dtype == np.int8
    assert np.shares_memory(core._ports, tables.ports)
    shape = (net.num_routers, net.num_end_nodes)
    lowered = [
        name
        for name, v in vars(core).items()
        if isinstance(v, np.ndarray)
        and v.shape == shape
        and not (v.dtype == tables.ports.dtype and np.shares_memory(v, tables.ports))
    ]
    assert not lowered, f"{engine} engine holds a lowered matrix: {lowered}"


def test_tables_have_no_lowering():
    assert not hasattr(RoutingTable, "lower")
