"""End-to-end benchmark of the fractahedral-network reproduction.

Run from the repository root:

    python3 benchmarks/e2e/bench.py run [--workload W] [--seed N]
        [--seconds S] [--trace 0|1] [--runs R] [--out FILE]
        [--spans FILE] [--expect FILE]
    python3 benchmarks/e2e/bench.py compare PARENT.json CHANGE.json

``run`` measures each workload (all four unless ``--workload`` names
one) for ``--seconds`` host seconds.  Every iteration runs in a fresh child
process with ``OMP_NUM_THREADS=1``, one at a time, so each starts cold and
its peak RSS is its own.  The last line of the output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
A failed operation makes the exit code 1.

``iteration`` is the child's entry point; ``run`` calls it.

README.md describes the workloads, the metrics and the measuring protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 1996
WORKLOADS = ("d4_cold", "d3_loads", "sweep64", "faults128")
END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_cycles_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_frac": "ratio", "host.canary_s": "s"}
SETUP_KINDS = frozenset({"build", "tables", "certify", "make_sim"})
#: the calls whose simulated cycle count the benchmark knows
SIM_KINDS = frozenset({"run", "curve", "episode"})
#: The canary's median time on the machine the baseline was measured on;
#: end-to-end times are reported at that machine speed.
CANARY_REF_S = 0.24
#: A child that has not finished by then is killed, so that one invocation
#: of the benchmark ends within 180 s.
CHILD_TIMEOUT_S = 170.0
MIN_PAIRS = 10


# ---------------------------------------------------------------------------
# host facts


def canary_s() -> float:
    """Host time of a fixed pure-Python plus numpy job.

    It takes 0.22-0.35 s on the reference host described in README.md.

    It runs before and after each iteration's workload, so machine-speed
    drift shows beside every measurement instead of passing for a code
    change.
    """
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    for _ in range(16):
        np.sort(data)
    return time.perf_counter() - start


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_meta() -> dict[str, Any]:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measuring


def spawn(workload: str, seed: int, traced: bool, quick: bool, timeout: float) -> dict:
    """Run one iteration in a fresh child process and return its record."""
    cmd = [sys.executable, str(Path(__file__)), "iteration", workload, str(seed)]
    cmd += ["--traced"] * traced + ["--quick"] * quick
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"traced": traced, "error": proc.stderr[-2000:] or f"exit {proc.returncode}"}


def check(iterations: list[dict], expected: dict[str, str] | None) -> dict[str, Any]:
    """Count operations and failures over a workload's iterations.

    The reference digest of an operation is the expected one when known,
    else the first iteration's: every iteration of a run has the same
    inputs, traced or not, so all must agree.  A missing operation (the
    iteration crashed before it), a mismatch or a recorded problem fails.
    """
    ref = dict(expected or {})
    attempted = failed = 0
    problems: list[str] = []
    for i, it in enumerate(iterations):
        ops = it.get("ops", {})
        if "error" in it:
            attempted += 1
            failed += 1
            problems.append(f"iteration {i}: {it['error'].strip().splitlines()[-1]}")
        for op in sorted(set(ops) | set(ref)):
            attempted += 1
            got = ops.get(op)
            if got is None:
                why = "missing"
            elif got["problem"]:
                why = got["problem"]
            elif ref.setdefault(op, got["digest"]) != got["digest"]:
                why = "digest differs from the " + ("expected" if expected else "first") + " run"
            else:
                continue
            failed += 1
            problems.append(f"iteration {i}: {op}: {why}")
    return {"digests": ref, "attempted": attempted, "failed": failed, "problems": problems}


def section_kind(label: str) -> str:
    """The kind of a section label (``run:0.004`` -> ``run``)."""
    return label.split(":", 1)[0]


def timings(sections: dict[str, float]) -> dict[str, float]:
    """Wall, set-up and simulation time of one iteration's sections."""
    return {
        "wall_s": sum(sections.values()),
        "setup_s": sum(v for k, v in sections.items() if section_kind(k) in SETUP_KINDS),
        "sim_s": sum(v for k, v in sections.items() if section_kind(k) in SIM_KINDS),
    }


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    expected: dict[str, str] | None,
) -> dict[str, Any]:
    """Measure one workload for ``seconds``: iterations until time runs out.

    Another iteration starts only while the longest one so far still
    fits in the budget.  With ``trace`` the iterations alternate untraced
    and traced, at least one of each.

    The end-to-end times take each timed call's lower-quartile time over
    the run's untraced iterations, then scale the sum to the reference
    machine speed (``CANARY_REF_S`` over the run's median canary).  The
    lower quartile drops slow spells of the host that fall inside the run
    without resting on one lucky iteration; the canary scale corrects for
    a spell that covers the whole run.
    """
    loadavg = os.getloadavg()[0]
    iterations: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(iterations) % 2 == 1
        began = time.perf_counter()
        timeout = max(10.0, CHILD_TIMEOUT_S - (began - start))
        iterations.append(spawn(workload, seed, traced, quick, timeout))
        longest = max(longest, time.perf_counter() - began)
        done = time.perf_counter() - start
        if len(iterations) >= 1 + trace and done + longest > seconds:
            break
    result = check(iterations, expected)
    plain = [it for it in iterations if not it["traced"] and "error" not in it]
    traced_its = [it for it in iterations if it["traced"] and "error" not in it]
    canaries = [c for it in iterations for c in it.get("canary_s", ())]
    canary = statistics.median(canaries) if canaries else float("nan")
    metrics = {}
    if plain:
        typical = {
            label: lower_quartile([it["sections"][label] for it in plain])
            for label in plain[0]["sections"]
        }
        scale = CANARY_REF_S / canary
        t = {k: v * scale for k, v in timings(typical).items()}
        values = {
            "wall_s": t["wall_s"],
            "setup_s": t["setup_s"],
            "sim_cycles_per_s": plain[0]["sim_cycles"] / t["sim_s"],
            "peak_rss_mb": statistics.median(it["rss_mb"] for it in plain),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}
    layers = {}
    if traced_its and plain:
        layers = {
            m: {"value": statistics.median(it["layers"][m] for it in traced_its), "unit": unit}
            for m, unit in LAYER_METRICS.items()
        }
        traced_wall = statistics.median(timings(it["sections"])["wall_s"] for it in traced_its)
        plain_wall = statistics.median(timings(it["sections"])["wall_s"] for it in plain)
        layers["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1, "unit": "ratio"}
        layers["host.canary_s"] = {"value": canary, "unit": "s"}
    return {
        "canary_s": canary,
        "loadavg": loadavg,
        "iterations": [
            {k: v for k, v in it.items() if k not in ("ops", "spans", "layers")}
            for it in iterations
        ],
        "spans": [span for it in traced_its for span in it["spans"]],
        "metrics": metrics,
        "layers": layers,
        **result,
    }


def load_runs(path: Path) -> list[dict]:
    return json.loads(path.read_text())["runs"] if path.exists() else []


def load_expected(path: Path) -> dict[tuple, dict[str, str]]:
    """(workload, seed, quick) -> op digests, from a ``--out`` file's runs."""
    out: dict[tuple, dict[str, str]] = {}
    for run in load_runs(path):
        for workload, res in run["workloads"].items():
            if res["failed"] == 0:
                out.setdefault((workload, run["seed"], run["quick"]), res["digests"])
    return out


# ---------------------------------------------------------------------------
# reporting


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_run(run: dict, index: int, total: int) -> None:
    meta = run["meta"]
    print(
        f"run {index + 1}/{total}  seed {run['seed']}  commit {meta['commit'][:12]}  "
        f"python {meta['python']}  numpy {meta['numpy']}  nproc {meta['nproc']}"
    )
    for workload, res in run["workloads"].items():
        its = res["iterations"]
        print(
            f"  {workload:<10} {len(its)} iterations  canary {res['canary_s']:.3f} s  "
            f"load {res['loadavg']:.2f}  {res['attempted']} ops, {res['failed']} failed"
        )
        for problem in res["problems"]:
            print(f"    FAILED {problem}")
        walls = [
            timings(it["sections"])["wall_s"]
            for it in its
            if not it["traced"] and "error" not in it
        ]
        if walls:
            q1, med, q3 = quartiles(walls)
            print(f"    host wall of the iterations: median {med:.4g} s [{q1:.4g}, {q3:.4g}]")
        for name, metric in {**res["metrics"], **res["layers"]}.items():
            print(f"    {name:<26} {metric['value']:>14.6g} {metric['unit']}")


def run_values(runs: list[dict], workload: str, name: str) -> list[float]:
    """A metric's value in every run that reports it."""
    kind = "metrics" if name in END_TO_END else "layers"
    return [
        r["workloads"][workload][kind][name]["value"]
        for r in runs
        if name in r["workloads"][workload][kind]
    ]


def print_set(runs: list[dict]) -> None:
    """Median and quartiles of each metric across the runs of a set."""
    print(f"set of {len(runs)} runs: median [q1, q3]")
    for workload in runs[0]["workloads"]:
        for name, unit in {**END_TO_END, **PER_LAYER}.items():
            values = run_values(runs, workload, name)
            if values:
                q1, med, q3 = quartiles(values)
                print(f"  {workload:<10} {name:<26} {med:>12.6g} [{q1:.6g}, {q3:.6g}] {unit}  n={len(values)}")


def summary_line(runs: list[dict], trace: bool) -> dict[str, Any]:
    """The result line printed last; metrics are medians over the runs."""
    workloads = list(runs[0]["workloads"])
    metrics = {}
    for workload in workloads:
        for name, unit in (PER_LAYER if trace else END_TO_END).items():
            values = run_values(runs, workload, name)
            if values:
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": statistics.median(values), "unit": unit}
    attempted = sum(r["workloads"][w]["attempted"] for r in runs for w in workloads)
    failed = sum(r["workloads"][w]["failed"] for r in runs for w in workloads)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# commands


def cmd_run(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.expect and not args.expect.exists():
        print(f"bench: --expect file {args.expect} does not exist", file=sys.stderr)
        return 2
    expected = load_expected(args.expect or BASELINE)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    meta = run_meta()
    runs, spans = [], []
    for r in range(args.runs):
        # rotate the order so no workload always runs first (cold host)
        order = workloads[r % len(workloads) :] + workloads[: r % len(workloads)]
        run = {
            "started": time.time(),
            "meta": meta,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "quick": args.quick,
            "workloads": {},
        }
        for workload in order:
            res = measure(
                workload,
                args.seed,
                args.seconds,
                bool(args.trace),
                args.quick,
                expected.get((workload, args.seed, args.quick)),
            )
            spans.extend(res.pop("spans"))
            run["workloads"][workload] = res
        run["workloads"] = {w: run["workloads"][w] for w in workloads}
        print_run(run, r, args.runs)
        runs.append(run)
    if len(runs) > 1:
        print_set(runs)
    if args.out:
        previous = load_runs(args.out)
        args.out.write_text(json.dumps({"runs": previous + runs}, indent=1) + "\n")
    if args.spans:
        args.spans.write_text(json.dumps(spans) + "\n")
    line = summary_line(runs, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Judge one (metric, workload) over paired parent and change runs.

    *improved*: the change wins at least 0.9 of the pairs (ties count for
    neither) and its median gain exceeds the parent's IQR.  *worse*: its
    median is worse than the parent's by more than ``bound``.
    *unresolved*: either side's IQR is wider than ``bound``, unless every
    change run beats every parent run.  Otherwise *unchanged*.  Returns
    the verdict and the change's win fraction.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if win_frac >= 0.9 and gain > p3 - p1:
        return "improved", win_frac
    if -gain > bound * abs(pm):
        return "worse", win_frac
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if not all_better and max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound:
        return "unresolved", win_frac
    return "unchanged", win_frac


def interleaved(parent: list[dict], change: list[dict]) -> bool:
    """True when, ordered by start time, the runs alternate sides."""
    sides = [s for _, s in sorted([(r["started"], 0) for r in parent] + [(r["started"], 1) for r in change])]
    return all(a != b for a, b in zip(sides, sides[1:]))


def cmd_compare(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        print(
            f"compare: need at least {MIN_PAIRS} pairs, got {len(parent)} parent "
            f"and {len(change)} change runs",
            file=sys.stderr,
        )
        return 2
    parent, change = parent[:pairs], change[:pairs]
    if not interleaved(parent, change):
        print("compare: the runs were not interleaved parent/change by start time", file=sys.stderr)
        return 2
    workloads = [w for w in WORKLOADS if w in parent[0]["workloads"] and w in change[0]["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload in workloads:
        print(f"{workload}: every pair (parent / change)")
        print("  pair  canary_s          " + "".join(f"{m:<26}" for m in metrics))
        for k, (p, c) in enumerate(zip(parent, change)):
            pw, cw = p["workloads"][workload], c["workloads"][workload]
            cells = "".join(
                f"{pw['metrics'][m]['value']:>11.5g} / {cw['metrics'][m]['value']:<11.5g}"
                for m in metrics
            )
            print(f"  {k:>4}  {pw['canary_s']:.3f} / {cw['canary_s']:.3f}   {cells}")
    print("metric / workload: parent median [q1, q3] | change median [q1, q3] | wins | verdict")
    for name, m in metrics.items():
        for workload in workloads:
            pv, cv = run_values(parent, workload, name), run_values(change, workload, name)
            result, win_frac = verdict(pv, cv, m["better"], m["bound"])
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(
                f"  {name:<17} {workload:<10} {pm:.5g} [{p1:.5g}, {p3:.5g}] | "
                f"{cm:.5g} [{c1:.5g}, {c3:.5g}] | {win_frac:.2f} | {result}"
            )
    print("failed operations per workload (failed / attempted)")
    for workload in workloads:
        fracs = []
        for runs in (parent, change):
            failed = sum(r["workloads"][workload]["failed"] for r in runs)
            attempted = sum(r["workloads"][workload]["attempted"] for r in runs)
            fracs.append(failed / attempted if attempted else 0.0)
        print(
            f"  {workload:<10} parent {fracs[0]:.4f}  change {fracs[1]:.4f}  "
            f"delta {fracs[1] - fracs[0]:+.4f}"
        )
    return 0


def cmd_iteration(args: argparse.Namespace) -> int:
    from workloads import run_iteration  # imports the program; the parent never does

    # the canary runs in the same process as the workload, just before and
    # after it, so both see the same processor
    before = canary_s()
    record = run_iteration(args.workload, args.seed, args.traced, args.quick)
    record["canary_s"] = [before, canary_s()]
    print(json.dumps(record))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument(
        "--seconds", type=float, default=0.0,
        help="host seconds to measure each workload (default 0: one iteration)",
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--runs", type=int, default=1, help="passes over the workloads")
    run.add_argument("--out", type=Path, help="append the runs to this JSON file")
    run.add_argument("--spans", type=Path, help="write the traced iterations' spans here")
    run.add_argument(
        "--expect", type=Path,
        help=f"compare digests with this --out file (default {BASELINE.name})",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="reduced cycles, for the harness self-test only",
    )
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="compare two sets of interleaved runs")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)
    compare.set_defaults(func=cmd_compare)

    iteration = sub.add_parser("iteration", help="one iteration in this process")
    iteration.add_argument("workload", choices=WORKLOADS)
    iteration.add_argument("seed", type=int)
    iteration.add_argument("--traced", action="store_true")
    iteration.add_argument("--quick", action="store_true")
    iteration.set_defaults(func=cmd_iteration)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
