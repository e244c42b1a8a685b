"""One-shot reproduction artifact: every experiment, one JSON + transcript.

``python -m repro reproduce --out results.json`` runs every experiment
driver, checks each headline number against the paper (or the documented
deviation), and writes a machine-readable record plus a printable
transcript -- the artifact a reproduction report would attach.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any

__all__ = ["HEADLINE_CHECKS", "reproduce", "write_results"]


def _check_fig3(rows: dict) -> list[tuple[str, bool]]:
    from repro.experiments.fig3_assemblies import PAPER_TABLE

    return [
        (
            f"M={m}: {rows[m]['end_ports']} ports, {rows[m]['contention']}:1",
            (rows[m]["end_ports"], rows[m]["contention"]) == expected,
        )
        for m, expected in PAPER_TABLE.items()
    ]


def _check_table1(rows: list[dict]) -> list[tuple[str, bool]]:
    out = []
    for row in rows:
        kind = "fat" if row["fat"] else "thin"
        out.append(
            (
                f"N={row['levels']} {kind}: nodes/delay/bisection vs formulas",
                row["nodes"] == row["nodes_formula"]
                and row["sampled_max_hops"] == row["delay_formula"]
                and row["bisection"] == row["bisection_formula"],
            )
        )
    return out


#: experiment id -> (runner kwargs, headline checker over run() output)
HEADLINE_CHECKS: dict[str, Any] = {
    "fig1": lambda r: [
        ("loop routing deadlocks", r["clockwise_deadlocked"]),
        ("dimension order delivers", r["dor_delivered"] == 4),
    ],
    "fig2": lambda r: [
        ("six double-ended disables", r["num_prohibited_turns"] == 12),
        ("disabled cube is acyclic", not r["disables_cdg_cyclic"]),
        ("upper links top-node-only", min(r["upper_link_top_fraction"].values()) == 1.0),
    ],
    "fig3": _check_fig3,
    "table1": _check_table1,
    "sec31": lambda r: [
        ("mesh hops 11/15/45", [s["max_hops"] for s in r["scaling"]] == [11, 15, 45]),
        ("mesh contention 10:1", r["worst_contention"] == 10),
    ],
    "sec32": lambda r: [("6-D cube infeasible", not r["six_d_feasible"])],
    "sec33": lambda r: [
        ("fat tree 28 routers", r["ft42_routers"] == 28),
        ("fat tree 12:1", r["ft42_worst_contention"] == 12),
        ("3-3 tree 100 routers", r["ft33_routers"] == 100),
    ],
    "table2": lambda r: [
        ("routers 28/48", (r["fat_tree"]["routers"], r["fractahedron"]["routers"]) == (28, 48)),
        ("avg hops 4.4/4.3", abs(r["fat_tree"]["avg_hops"] - 4.43) < 0.01
         and abs(r["fractahedron"]["avg_hops"] - 4.30) < 0.01),
        ("diagonal pattern 4:1", r["fractahedron"]["diagonal_pattern_contention"] == 4),
    ],
    "sec24": lambda r: [
        ("shipped routing certified", all(r["certified"].values())),
        ("anti-pattern deadlocks", r["funneled_deadlocked"]),
        ("corruption blocked", r["corruption_blocked"]),
    ],
    "adaptive": lambda r: [
        ("fixed routing in order", r["fixed"]["order_violations"] == 0),
        ("adaptive reorders", r["adaptive"]["order_violations"] > 0),
    ],
    "faults": lambda r: [
        (
            "dual fabric dominates",
            all(row["dual_avg"] > row["single_avg"] for row in r["rows"]),
        ),
        (
            "every online-recomputed table is certified deadlock-free",
            all(row["recovered_acyclic"] for row in r.get("recovery", [])),
        ),
        (
            "re-routing reconverges on failure and on repair",
            all(row["reroutes"] == 2 for row in r.get("recovery", [])),
        ),
        (
            "recovery restores full delivery",
            all(
                row["delivery_rate"] == 1.0 and row["post_recovery_rate"] == 1.0
                for row in r.get("recovery", [])
            ),
        ),
    ],
    "modern": lambda r: [
        (
            "both certifiers agree on every (topology, routing) pair",
            r["all_agree"],
        ),
        (
            "full-mesh valley spreading certified with zero VCs",
            r["vc_free_fullmesh_certified"],
        ),
        (
            "naive full-mesh spreading correctly rejected",
            r["naive_fullmesh_rejected"],
        ),
        (
            "sampled routing validation passes on every fabric",
            all(row["ok"] for row in r["validation"]),
        ),
        (
            "three-engine counter parity on every fabric",
            all(row["parity"] for row in r["parity"]),
        ),
        (
            "recovery restores full delivery on every fabric",
            all(
                row["delivery_rate"] == 1.0 and row["post_recovery_rate"] == 1.0
                for row in r["recovery"]
            ),
        ),
    ],
    "scale": lambda r: [
        (
            "thousand-node fabric simulates on the compiled engine",
            r["rows"][-1]["ends"] >= 1024 and r["rows"][-1]["packets_delivered"] > 0,
        ),
        (
            "Table 1 formulas hold at the top depth",
            r["validation"]["nodes_ok"]
            and r["validation"]["delay_ok"]
            and r["validation"]["bisection_ok"],
        ),
    ],
}


def reproduce(experiments: list[str] | None = None, jobs: int = 1) -> dict:
    """Run every experiment and evaluate its headline checks.

    ``jobs`` is forwarded to every driver whose ``run()`` accepts it, so
    the expensive sweeps fan out while the checks stay unchanged.
    """
    from repro import __version__
    from repro.experiments.registry import (
        ExperimentConfig,
        experiment_names,
        get_experiment,
    )

    names = experiments or [n for n in experiment_names() if n in HEADLINE_CHECKS]
    record: dict[str, Any] = {
        "paper": "Horst, ServerNet Deadlock Avoidance and Fractahedral "
        "Topologies, IPPS 1996",
        "library_version": __version__,
        "python": platform.python_version(),
        "experiments": {},
        "all_passed": True,
    }
    for name in names:
        result = get_experiment(name).run(ExperimentConfig(jobs=jobs)).data
        checks = [
            {"check": text, "passed": bool(ok)}
            for text, ok in HEADLINE_CHECKS[name](result)
        ]
        passed = all(c["passed"] for c in checks)
        record["experiments"][name] = {"passed": passed, "checks": checks}
        record["all_passed"] = record["all_passed"] and passed
    return record


def write_results(path: str | Path, record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=1, sort_keys=True))


def transcript(record: dict) -> str:
    lines = [
        f"Reproduction record: {record['paper']}",
        f"library {record['library_version']} / python {record['python']}",
        "",
    ]
    for name, entry in record["experiments"].items():
        flag = "PASS" if entry["passed"] else "FAIL"
        lines.append(f"[{flag}] {name}")
        for check in entry["checks"]:
            mark = "ok " if check["passed"] else "BAD"
            lines.append(f"    {mark} {check['check']}")
    lines.append("")
    lines.append(
        "ALL HEADLINE CHECKS PASSED"
        if record["all_passed"]
        else "SOME CHECKS FAILED -- see above"
    )
    return "\n".join(lines)
