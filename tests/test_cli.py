"""CLI smoke tests (in-process, via main())."""

import pytest

from repro.cli import main


def test_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "table2" in out and "fig1" in out


def test_topologies_listing(capsys):
    assert main(["topologies"]) == 0
    out = capsys.readouterr().out
    assert "fat_fractahedron" in out


def test_run_fig3(capsys):
    assert main(["run", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "3:1" in out


def test_run_unknown(capsys):
    assert main(["run", "nonsense"]) == 1


def test_build(capsys):
    assert main(["build", "fat_fractahedron", "--param", "levels=2"]) == 0
    out = capsys.readouterr().out
    assert "48 routers" in out and "64 end nodes" in out


def test_build_bad_param():
    with pytest.raises(SystemExit):
        main(["build", "ring", "--param", "oops"])


def test_certify(capsys):
    assert main(["certify", "fat_fractahedron", "--param", "levels=2"]) == 0
    out = capsys.readouterr().out
    assert "deadlock_free=True" in out
    assert "channel-order certificate: 336 channels in ascending order" in out
    assert "counterexample" not in out


def test_certify_mesh(capsys):
    assert main(["certify", "mesh", "--param", "shape=(3,3)"]) == 0
    assert "deadlock_free=True" in capsys.readouterr().out


def test_certify_rejects_torus_with_counterexample(capsys):
    assert main(["certify", "torus", "--param", "shape=(4,4)"]) == 1
    out = capsys.readouterr().out
    assert "deadlock_free=False" in out
    assert "channel-order counterexample: " in out
    assert "certificate" not in out


def test_simulate(capsys):
    assert (
        main(
            [
                "simulate",
                "ring",
                "--param",
                "num_routers=4",
                "--rate",
                "0.02",
                "--cycles",
                "400",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "avg latency" in out


def test_simulate_forced_vec_runs_faults(capsys):
    # a lone fault-recovery run is vectorized work: forcing the engine
    # prints exactly what the compiled core prints
    argv = ["simulate", "ring", "--param", "num_routers=4", "--faults", "1",
            "--cycles", "200", "--retry", "--engine"]
    outs = []
    for engine in ("compiled", "vec"):
        assert main(argv + [engine]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "recovery: retried=" in outs[1]


def test_simulate_forced_vec_refuses_probes(capsys):
    # the engine decision refuses the spec; the CLI prints why and exits 2
    argv = ["simulate", "ring", "--param", "num_routers=4", "--engine", "vec",
            "--faults", "1", "--cycles", "200", "--sample-interval", "10"]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "engine='vectorized' does not support: probe" in out


def test_build_save_and_inspect(tmp_path, capsys):
    path = str(tmp_path / "fabric.json")
    assert (
        main(["build", "fat_fractahedron", "--param", "levels=1", "--save", path]) == 0
    )
    capsys.readouterr()
    assert main(["inspect", path]) == 0
    out = capsys.readouterr().out
    assert "deadlock_free=True" in out


def test_inspect_cyclic_fabric_fails(tmp_path, capsys):
    path = str(tmp_path / "torus.json")
    assert main(["build", "torus", "--param", "shape=(4,4)", "--save", path]) == 0
    capsys.readouterr()
    assert main(["inspect", path]) == 1
    assert "deadlock_free=False" in capsys.readouterr().out


def test_sweep_saturation_prints_offered_packet_rate(capsys):
    """The search returns a plan rate, packets per node per cycle, the
    unit of the curve's offered column."""
    import re

    from repro.routing.cache import cached_tables
    from repro.sim.sweep import find_saturation
    from repro.topology.mesh import mesh

    net = mesh((3, 3))
    expected = find_saturation(net, cached_tables(net), cycles=400)
    args = ["sweep", "mesh", "--param", "shape=3,3", "--rates", "0.05",
            "--cycles", "400", "--saturation"]
    assert main(args) == 0
    line = re.search(r"saturation rate: (\S+) (.*)", capsys.readouterr().out)
    assert float(line.group(1)) == round(expected, 4)
    assert line.group(2) == "offered packets/node/cycle"


def test_sweep_saturation_honours_seed(capsys):
    from repro.routing.cache import cached_tables
    from repro.sim.sweep import find_saturation
    from repro.topology.mesh import mesh

    net = mesh((3, 3))
    expected = find_saturation(net, cached_tables(net), cycles=600, seed=42)
    args = ["sweep", "mesh", "--param", "shape=3,3", "--rates", "0.01",
            "--cycles", "600", "--saturation", "--seed", "42"]
    assert main(args) == 0
    assert f"saturation rate: {expected:.4f}" in capsys.readouterr().out
    assert expected != find_saturation(net, cached_tables(net), cycles=600)
