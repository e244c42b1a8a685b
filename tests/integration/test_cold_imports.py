"""A cold set-up pipeline must not import ``numpy.ma``.

A plain ``np.unique(x)`` imports :mod:`numpy.ma` on its first call in a
process, 10-20 ms that lands in a cold run's set-up.  The table fill, the
certifier's walk and the vectorized engine use
``repro.routing.base.sorted_unique`` instead; this runs the whole pipeline
in a fresh interpreter and checks that the import never happens.
"""

import subprocess
import sys

SCRIPT = """
import sys

from repro.core.fractahedron import fat_fractahedron
from repro.deadlock.certifier import certify_channel_order
from repro.routing.cache import cached_tables
from repro.sim import SimConfig
from repro.sim.api import make_sim
from repro.sim.vec import UniformPlan

net = fat_fractahedron(2, fanout_width=2)
tables = cached_tables(net)
assert certify_channel_order(net, tables).certified
sim = make_sim(net, tables, UniformPlan(0.02, 8, 1996), SimConfig())
sim.run(50)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_pipeline_skips_numpy_ma():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
