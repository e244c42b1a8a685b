"""Export: round-trips, the deterministic view, diffing and the report."""

from repro.obs import (
    deterministic_view,
    diff_metrics,
    read_metrics,
    render_report,
    write_metrics,
)

ROWS = [
    {"kind": "manifest", "topology": "mesh", "engine": "compiled", "jobs": 4,
     "seed": 7, "wall_seconds": 1.25, "sim_config": {"buffer_depth": 4}},
    {"kind": "point", "offered_load": 0.01, "avg_latency": 11.5,
     "saturated": False},
    {"kind": "sample", "cycle": 100, "occupied_buffers": 3,
     "link_utilization": {"a": 0.5, "b": 1.0}},
    {"kind": "span", "name": "simulate", "seconds": 0.8, "count": 2},
    {"kind": "counter", "name": "sweep_points", "value": 2},
    {"kind": "cache", "hits": 3, "misses": 1, "build_seconds": 0.42,
     "seconds_saved": 1.26},
]


class TestRoundTrip:
    def test_jsonl(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_metrics(path, ROWS)
        assert read_metrics(path) == ROWS

    def test_csv_preserves_nesting_and_types(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(path, ROWS)
        got = read_metrics(path)
        assert got[0]["sim_config"] == {"buffer_depth": 4}
        assert got[1]["offered_load"] == 0.01
        assert got[1]["saturated"] is False
        assert got[2]["link_utilization"] == {"a": 0.5, "b": 1.0}

    def test_jsonl_stringifies_exotic_values(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_metrics(path, [{"kind": "row", "value": complex(1, 2)}])
        assert read_metrics(path)[0]["value"] == "(1+2j)"


class TestDeterministicView:
    def test_strips_identity_and_timing(self):
        view = deterministic_view(ROWS)
        # span and cache rows dropped whole (wall time / process history)
        assert all(r.get("kind") not in ("span", "cache") for r in view)
        assert len(view) == len(ROWS) - 2
        manifest = view[0]
        for key in ("engine", "jobs", "wall_seconds"):
            assert key not in manifest
        assert manifest["seed"] == 7 and manifest["topology"] == "mesh"

    def test_diff_ignores_nondeterministic_keys(self):
        other = [dict(r) for r in ROWS]
        other[0] = {**other[0], "engine": "reference", "jobs": 1,
                    "wall_seconds": 99.0}
        other[3] = {**other[3], "seconds": 123.0}
        assert diff_metrics(ROWS, other) == []

    def test_diff_reports_real_divergence(self):
        other = [dict(r) for r in ROWS]
        other[1] = {**other[1], "avg_latency": 99.0}
        diffs = diff_metrics(ROWS, other)
        assert len(diffs) == 1
        assert "avg_latency" in diffs[0] and "99.0" in diffs[0]

    def test_diff_reports_row_count_mismatch(self):
        shorter = [r for r in ROWS if r["kind"] != "counter"]
        diffs = diff_metrics(ROWS, shorter)
        assert any("row count differs" in d for d in diffs)

    def test_dropped_kinds_never_count(self):
        # removing span/cache rows must be invisible to the diff
        assert diff_metrics(ROWS, [r for r in ROWS if r["kind"] not in ("span", "cache")]) == []


class TestReport:
    def test_sections_render(self):
        text = render_report(ROWS)
        assert "run manifest:" in text
        assert "topology: mesh" in text
        assert "sweep points (1):" in text
        assert "phase timing:" in text
        assert "simulate: 0.800s over 2 call(s)" in text
        assert "counters & gauges:" in text
        assert "sampling: 1 snapshots" in text
        assert "hottest links" in text
        assert "routing-table cache:" in text
        assert "tables: 3 hit(s) / 1 miss(es), 0.420s building, 1.260s saved" in text

    def test_empty_file(self):
        assert render_report([]) == "(empty metrics file)"
