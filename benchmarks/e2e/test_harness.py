"""Self-test of the end-to-end benchmark harness.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Run it from the
repository root:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

It runs every workload at reduced cycles (``--quick``): once untraced, and
once as a traced pass of one untraced plus one traced iteration.  That
takes about 45 s on the reference host of README.md and needs about 1.5 GB
of memory for ``d4_cold``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Per-layer metrics that must be nonzero on each workload's traced pass.
#: ``routing.cache_hits`` is absent: every iteration is a fresh process and
#: no workload asks for the same table twice, so it reads 0 everywhere.
LAYER_ACTIVITY = {
    "d4_cold": (
        "topology.build_s", "routing.tables_s", "routing.cache_misses",
        "deadlock.order_s", "deadlock.dependencies", "deadlock.pairs_checked",
        "sim.compile_s", "sim.lower_s", "sim.engine_init_s", "sim.run_s",
        "sim.us_per_cycle", "sim.ns_per_flit", "sim.peak_occupied_buffers",
        "sim.finalize_s",
    ),
    "d3_loads": (
        "sim.run_s", "sim.us_per_cycle", "sim.ns_per_flit",
        "sim.peak_occupied_buffers", "sim.finalize_s",
    ),
    "sweep64": (
        "sim.runs_vectorized", "sim.runs_compiled", "sim.batch_replicas",
        "sim.execute_s", "sim.execute_batch_s", "sweep.curve_s",
        "sweep.saturation_s", "sweep.points", "sweep.probes", "sweep.zero_load_s",
    ),
    "faults128": (
        "routing.validate_s", "routing.route_walk_s", "routing.routes_walked",
        "deadlock.order_s", "deadlock.cdg_s", "deadlock.dependencies",
        "deadlock.pairs_checked", "recovery.episode_s", "recovery.recompute_s",
        "recovery.certify_s", "recovery.table_swaps", "recovery.retried",
        "recovery.dropped", "recovery.failed_over",
    ),
}


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    """Run ``bench.py run --quick``; return the exit code and the last line."""
    proc = subprocess.run(
        [sys.executable, str(Path(cwd, "benchmarks/e2e/bench.py")), "run", "--quick", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> tuple[dict, dict, Path]:
    out = tmp_path_factory.mktemp("untraced") / "runs.json"
    code, line = run_bench("--out", str(out))
    assert code == 0, line
    return line, json.loads(out.read_text())["runs"][0], out


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[dict, dict, list[dict]]:
    tmp = tmp_path_factory.mktemp("traced")
    code, line = run_bench(
        "--trace", "1", "--out", str(tmp / "runs.json"), "--spans", str(tmp / "spans.json")
    )
    assert code == 0, line
    run = json.loads((tmp / "runs.json").read_text())["runs"][0]
    return line, run, json.loads((tmp / "spans.json").read_text())


def test_names_units_and_workloads_match_benchmark_json(untraced, traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/e2e/bench.py", "run"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    for line, names in ((untraced[0], bench.END_TO_END), (traced[0], bench.PER_LAYER)):
        expected = {f"{w}.{m}": unit for w in bench.WORKLOADS for m, unit in names.items()}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_runs_agree_and_traced_digests_equal_untraced(untraced, traced):
    for workload in bench.WORKLOADS:
        plain, both = untraced[1]["workloads"][workload], traced[1]["workloads"][workload]
        # the traced pass checks its traced iteration against its untraced one
        assert both["failed"] == 0, both["problems"]
        assert [it["traced"] for it in both["iterations"]] == [False, True]
        assert plain["failed"] == 0, plain["problems"]
        assert plain["digests"] == both["digests"]
        assert plain["attempted"] == len(plain["digests"]) > 0


def test_corrupted_expected_digest_counts_as_failed(untraced, tmp_path):
    runs = json.loads(untraced[2].read_text())
    digests = runs["runs"][0]["workloads"]["sweep64"]["digests"]
    op = sorted(digests)[0]
    digests[op] = "0" * 64
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps(runs))
    code, line = run_bench("--workload", "sweep64", "--expect", str(expect))
    assert code == 1
    assert line["correct"] is False
    assert line["failed"] == 1 and line["attempted"] == len(digests)


def test_span_tree_is_well_formed(traced):
    spans = traced[2]
    by_id = {(s["run"], s["id"]): s for s in spans}
    covered: dict[tuple, float] = {}
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is None:
            assert span["name"].startswith("bench."), span
            continue
        parent = by_id[(span["run"], span["parent"])]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        key = (span["run"], span["parent"])
        covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
    for key, child_time in covered.items():
        parent = by_id[key]
        assert parent["end"] - parent["start"] - child_time >= -1e-9


def test_every_layer_is_active_on_its_workload(traced):
    for workload, names in LAYER_ACTIVITY.items():
        layers = traced[1]["workloads"][workload]["layers"]
        assert set(layers) == set(bench.PER_LAYER)
        idle = [m for m in names if not layers[m]["value"] > 0]
        assert not idle, f"{workload}: {idle}"
    assert set(LAYER_METRICS) - {"routing.cache_hits"} <= {
        m for names in LAYER_ACTIVITY.values() for m in names
    }


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e", ignore=shutil.ignore_patterns("__pycache__"))
    code, line = run_bench("--workload", "sweep64", cwd=tmp_path)
    assert code != 0
    assert line is None


def test_verdicts_follow_the_pairing_rule():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert bench.verdict(parent, faster, "lower", 0.1) == ("improved", 1.0)
    assert bench.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "worse"
    assert bench.verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert bench.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"
    assert bench.verdict(parent, faster, "higher", 0.1)[0] == "worse"


def test_interleaving_is_required():
    runs = [{"started": t} for t in range(4)]
    assert bench.interleaved(runs[0::2], runs[1::2])
    assert not bench.interleaved(runs[:2], runs[2:])
