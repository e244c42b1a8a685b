"""Unit tests for the in-order session layer."""

from repro.routing.dimension_order import dimension_order_tables
from repro.servernet.protocol import SessionLayer
from repro.sim.engine import SimConfig
from repro.sim.api import make_sim
from repro.sim.traffic import explicit_traffic
from repro.topology.mesh import mesh


def _run(schedule, cycles=400):
    net = mesh((2, 2), nodes_per_router=1)
    tables = dimension_order_tables(net)
    sim = make_sim(net, tables, explicit_traffic(schedule), SimConfig())
    sim.run(cycles, drain=True)
    return sim


def test_transfer_with_interrupt_last():
    """The paper's I/O scenario: data packets then an interrupt packet; the
    interrupt must not pass the data (§3.3)."""
    schedule = [(0, "n0", "n3", 8), (1, "n0", "n3", 8), (2, "n0", "n3", 1)]
    sim = _run(schedule)
    session = SessionLayer(sim)
    interrupt_id = max(sim.packets)  # last packet created = the interrupt
    outcome = session.verify_transfer("n0", "n3", interrupt_packet_id=interrupt_id)
    assert outcome.ok
    assert outcome.delivered == outcome.packets == 3
    assert outcome.interrupt_last


def test_verify_all_pairs():
    schedule = [(0, "n0", "n3", 4), (0, "n1", "n2", 4), (5, "n0", "n3", 4)]
    sim = _run(schedule)
    session = SessionLayer(sim)
    outcomes = session.verify_all()
    assert len(outcomes) == 2
    assert session.all_ok()


def test_undelivered_transfer_flagged():
    schedule = [(0, "n0", "n3", 4)]
    net = mesh((2, 2), nodes_per_router=1)
    tables = dimension_order_tables(net)
    sim = make_sim(net, tables, explicit_traffic(schedule), SimConfig())
    sim.run(1)  # not enough time to deliver
    outcome = SessionLayer(sim).verify_transfer("n0", "n3")
    assert not outcome.ok
    assert outcome.delivered == 0 and outcome.packets == 1
