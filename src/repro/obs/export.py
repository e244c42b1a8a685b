"""Metrics export: JSONL/CSV writers, readers, diffing, and reports.

A metrics file is a flat sequence of rows (dicts).  Row ``kind``s:

* ``manifest`` -- run provenance (:mod:`repro.obs.manifest`);
* ``sample`` -- one probe snapshot (:mod:`repro.obs.probe`);
* ``counter`` / ``gauge`` / ``histogram`` / ``span`` -- registry metrics
  (:mod:`repro.obs.metrics`);
* ``point`` -- one sweep load point;
* ``cache`` -- routing-table cache counters at export time
  (:class:`repro.routing.cache.CacheStats`).

Format is chosen by extension: ``.jsonl`` (default; one JSON object per
line) or ``.csv`` (union-of-keys header, nested dicts/lists JSON-encoded
in their cell, so the file round-trips).

The **deterministic view** is the contract CI leans on: drop the rows
and keys that legitimately differ between runs of the same simulated
work (wall time, engine identity, job count, pids) and everything left
must be bit-identical across ``--engine compiled/reference`` and
``jobs=1`` vs ``jobs=4``.  ``fractanet report --diff`` compares exactly
this view.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "deterministic_view",
    "diff_metrics",
    "read_metrics",
    "render_report",
    "write_metrics",
]

#: Keys that may differ between runs of identical simulated work.  Wall
#: time and host identity are obvious; ``engine``/``jobs`` are the very
#: axes the parity check varies, so they cannot participate in the diff.
NONDETERMINISTIC_KEYS = frozenset(
    {
        "engine",
        "jobs",
        "pid",
        "seconds",
        "seconds_saved",
        "build_seconds",
        "speedup",
        "task_seconds",
        "wall_seconds",
        "workers_used",
    }
)


def _row_to_jsonable(row: dict[str, Any]) -> dict[str, Any]:
    return {k: row[k] for k in row}


def write_metrics(path: str | Path, rows: Iterable[dict[str, Any]]) -> Path:
    """Write rows as JSONL (default) or CSV (by ``.csv`` extension)."""
    path = Path(path)
    rows = list(rows)
    if path.suffix.lower() == ".csv":
        _write_csv(path, rows)
    else:
        with path.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(_row_to_jsonable(row), sort_keys=True, default=str))
                fh.write("\n")
    return path


def _write_csv(path: Path, rows: list[dict[str, Any]]) -> None:
    header: list[str] = []
    seen = set()
    for row in rows:
        for k in row:
            if k not in seen:
                seen.add(k)
                header.append(k)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            cells = []
            for k in header:
                if k not in row:
                    cells.append("")
                elif isinstance(row[k], str):
                    cells.append(row[k])
                else:
                    # JSON-encode so bools/None/nested values round-trip
                    # through the csv text layer with their types intact
                    cells.append(json.dumps(row[k], sort_keys=True, default=str))
            writer.writerow(cells)


def read_metrics(path: str | Path) -> list[dict[str, Any]]:
    """Read a metrics file back into rows (JSONL or CSV by extension)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv(path)
    rows = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _read_csv(path: Path) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        for record in csv.DictReader(fh):
            row: dict[str, Any] = {}
            for k, v in record.items():
                if v == "" or v is None:
                    continue
                try:
                    row[k] = json.loads(v)
                except (json.JSONDecodeError, TypeError):
                    row[k] = v
            rows.append(row)
    return rows


def deterministic_view(rows: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """The rows with every legitimately-varying part removed.

    Span rows are pure wall time and cache rows are pure process history
    (hit ratios depend on what ran before), so both are dropped whole;
    every other row keeps its deterministic keys only.  What remains is a
    pure function of the simulated work and must match bit-for-bit across
    engines and job counts.
    """
    view = []
    for row in rows:
        if row.get("kind") in ("span", "cache"):
            continue
        view.append(
            {k: v for k, v in row.items() if k not in NONDETERMINISTIC_KEYS}
        )
    return view


def diff_metrics(
    a: Iterable[dict[str, Any]], b: Iterable[dict[str, Any]]
) -> list[str]:
    """Human-readable differences between two deterministic views.

    Returns ``[]`` when the views are bit-identical.  Comparison is
    positional: the deterministic rows of one run line up one-to-one
    with the other's (export order is sorted / submission-ordered).
    """
    va, vb = deterministic_view(a), deterministic_view(b)
    diffs: list[str] = []
    if len(va) != len(vb):
        diffs.append(f"row count differs: {len(va)} vs {len(vb)}")
    for i, (ra, rb) in enumerate(zip(va, vb)):
        if ra == rb:
            continue
        keys = sorted(set(ra) | set(rb))
        for k in keys:
            x, y = ra.get(k, "<absent>"), rb.get(k, "<absent>")
            if x != y:
                diffs.append(
                    f"row {i} ({ra.get('kind', '?')}) key {k!r}: {x!r} != {y!r}"
                )
    return diffs


def render_report(rows: list[dict[str, Any]]) -> str:
    """A terminal summary of one metrics file.

    Sections: the manifest(s), the sweep points, folded spans, counters/
    gauges, and a sampling digest (per-link peak utilization across all
    sample rows).
    """
    lines: list[str] = []
    by_kind: dict[str, list[dict[str, Any]]] = {}
    for row in rows:
        by_kind.setdefault(str(row.get("kind", "?")), []).append(row)

    for man in by_kind.get("manifest", []):
        lines.append("run manifest:")
        for k in sorted(man):
            if k in ("kind", "sim_config"):
                continue
            lines.append(f"  {k}: {man[k]}")
        cfg = man.get("sim_config")
        if isinstance(cfg, dict):
            knobs = ", ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
            lines.append(f"  sim_config: {knobs}")

    points = by_kind.get("point", [])
    if points:
        lines.append("")
        lines.append(f"sweep points ({len(points)}):")
        for p in points:
            rate = p.get("offered_load", p.get("rate", "?"))
            lines.append(
                "  rate={rate} accepted={acc} avg={avg} p99={p99}{sat}".format(
                    rate=rate,
                    acc=p.get("accepted_flits_per_node_cycle", "?"),
                    avg=p.get("avg_latency", "?"),
                    p99=p.get("p99_latency", "?"),
                    sat=" SATURATED" if p.get("saturated") else "",
                )
            )

    spans = by_kind.get("span", [])
    if spans:
        lines.append("")
        lines.append("phase timing:")
        for s in spans:
            label = ", ".join(
                f"{k}={v}"
                for k, v in sorted(s.items())
                if k not in ("kind", "name", "seconds", "count")
            )
            suffix = f" [{label}]" if label else ""
            lines.append(
                f"  {s.get('name', '?')}: {s.get('seconds', 0.0):.3f}s"
                f" over {s.get('count', 0)} call(s){suffix}"
            )

    counters = by_kind.get("counter", []) + by_kind.get("gauge", [])
    if counters:
        lines.append("")
        lines.append("counters & gauges:")
        for c in counters:
            label = ", ".join(
                f"{k}={v}"
                for k, v in sorted(c.items())
                if k not in ("kind", "name", "value")
            )
            suffix = f" [{label}]" if label else ""
            lines.append(f"  {c.get('name', '?')} = {c.get('value')}{suffix}")

    for c in by_kind.get("cache", []):
        lines.append("")
        lines.append("routing-table cache:")
        lines.append(
            f"  tables: {c.get('hits', 0)} hit(s) / {c.get('misses', 0)} miss(es), "
            f"{c.get('build_seconds', 0.0):.3f}s building, "
            f"{c.get('seconds_saved', 0.0):.3f}s saved"
        )

    samples = by_kind.get("sample", [])
    if samples:
        peaks: dict[str, float] = {}
        max_occ = 0
        for s in samples:
            max_occ = max(max_occ, int(s.get("occupied_buffers", 0)))
            for link, util in (s.get("link_utilization") or {}).items():
                if util > peaks.get(link, 0.0):
                    peaks[link] = util
        lines.append("")
        lines.append(
            f"sampling: {len(samples)} snapshots, "
            f"peak occupied buffers {max_occ}"
        )
        if peaks:
            hottest = sorted(peaks.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
            lines.append("  hottest links (peak interval utilization):")
            for link, util in hottest:
                lines.append(f"    {link}: {util:.3f}")

    return "\n".join(lines) if lines else "(empty metrics file)"
