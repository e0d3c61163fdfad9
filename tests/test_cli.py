"""Command-line behavior: config validation, report shapes, exit codes."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from terracini import cli
from terracini.suite import CriterionResult, SuiteResult


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config validation -------------------------------------------------------


def test_missing_config_file_is_a_config_error(capsys):
    code, _, err = run_cli(["defect-scan", "--config", "/nonexistent.json"], capsys)
    assert code == 2
    assert "cannot read config" in err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"variety": }')
    code, _, err = run_cli(["defect-scan", "--config", str(path)], capsys)
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "payload",
    [
        {"variety": {"constructor": "mystery"}},
        {"variety": {"constructor": "veronese"}},
        {"variety": {"constructor": "cone", "vertex": [[1]]}},
        {"variety": "veronese-2-2", "k_range": [2, 1]},
        {"variety": "veronese-2-2", "trials": 0},
        {"variety": "veronese-2-2", "bogus_key": 1},
        {"variety": "veronese-2-2", "output": {"format": "yaml"}},
        {"variety": "veronese-2-2", "output": {"paht": "r.json"}},
        {"variety": "no-such-builtin"},
        # a repeated prime would count as two primes agreeing
        {"variety": "veronese-1-4", "enum_primes": [1009, 1009]},
        {"variety": "veronese-2-2", "enum_primes": [9, 1009]},
        {"variety": "veronese-2-2", "seed": -1},
        {"variety": "veronese-2-2", "field": 9},
        {"variety": "veronese-2-2", "field": 1009.0},
        # a hyperplane in P^5 has six coefficients
        {"variety": {"constructor": "hyperplane_section", "base": {"constructor": "veronese", "n": 2, "d": 2}, "hyperplane": [1, 2, 3]}},
        {"variety": {"constructor": "hyperplane_section", "base": {"constructor": "veronese", "n": 2, "d": 2}, "hyperplane": list(range(1, 8))}},
        {"variety": {"constructor": "cone", "base": {"constructor": "rnc", "d": 2}, "vertex": [[0, 0, 0, 1, 0], [0, 0, 0, 0]]}},
        # open() would take an int as a file descriptor
        {"variety": "veronese-2-2", "output": {"path": 5}},
        {"variety": "veronese-2-2", "output": {"path": "/nonexistent/dir/r.json"}},
        # blueprint nodes of the wrong type, rejected before any computation
        {"variety": {"constructor": "veronese", "n": "2", "d": 2}},
        {"variety": {"constructor": "veronese", "n": 2, "d": 2.0}},
        {"variety": {"constructor": "veronese", "n": True, "d": 2}},
        {"variety": {"constructor": "rnc", "d": "3"}},
        {"variety": {"constructor": ["rnc"], "d": 3}},
        {"variety": {"constructor": "implicit_plane_curve", "terms": 5, "genus_hint": 1}},
        {"variety": {"constructor": "implicit_plane_curve", "terms": [[1, ["a", 0, 3]]], "genus_hint": 1}},
        {"variety": {"constructor": "hypersurface_section", "base": {"constructor": "veronese", "n": 2, "d": 2}, "h": 7}},
        {"variety": {"constructor": "map_image", "base": {"constructor": "rnc", "d": 2}, "components": [[[1, [1, 0, 0]]], [[1, [0, 1, 0]]]], "arity": "3"}},
        {"variety": "veronese-2-2", "k_range": [True, True]},
        {"variety": {"constructor": "veronese", "n": 2, "d": 2, "bogus": 1}},
    ],
)
def test_invalid_configs_exit_2(tmp_path, capsys, payload):
    code, _, err = run_cli(
        ["defect-scan", "--config", write_config(tmp_path, payload)], capsys
    )
    assert code == 2
    assert err.startswith("terracini:")


@pytest.mark.parametrize(
    "argv",
    [
        ["defect-scan", "--seed", "-1"],
        ["defect-scan", "--field-prime", "9"],
        # paper-suite never builds a field from it, so only validation stops it
        ["paper-suite", "--field-prime", "9"],
        ["paper-suite", "--seed", "-1"],
        ["defect-scan", "--out", "/nonexistent/dir/r.json"],
    ],
)
def test_invalid_flags_exit_2(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, {"variety": "veronese-2-2"})
    code, out, err = run_cli(argv + ["--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("terracini:")


def test_scan_without_variety_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["defect-scan", "--config", write_config(tmp_path, {"seed": 1})], capsys
    )
    assert code == 2
    assert "variety" in err


# -- defect-scan --------------------------------------------------------------


def test_defect_scan_veronese_surface(tmp_path, capsys):
    cfg = write_config(tmp_path, {"variety": "veronese-2-2", "k_range": [1, 1], "seed": 7})
    code, out, err = run_cli(["defect-scan", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "terracini-report/v1"
    assert report["wall_clock_seconds"] is None
    assert "wall-clock" in err
    [row] = report["per_k"]
    assert (row["secant_dim"], row["expected_dim"], row["delta"]) == (4, 5, 1)
    assert report["min_defective_k"] == 1
    assert report["config"]["seed"] == 7


def test_defect_scan_k_zero_returns_variety_dim(tmp_path, capsys):
    cfg = write_config(tmp_path, {"variety": "veronese-2-2", "k_range": [0, 0]})
    code, out, _ = run_cli(["defect-scan", "--config", cfg], capsys)
    assert code == 0
    [row] = json.loads(out)["per_k"]
    assert row["secant_dim"] == row["dim_x"] == 2
    assert row["delta"] == 0


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, {"variety": "counter2", "k_range": [1, 2], "seed": 3})
    out_path = str(tmp_path / "report.json")
    assert cli.main(["defect-scan", "--config", cfg, "--out", out_path]) == 0
    first = open(out_path, "rb").read()
    assert cli.main(["defect-scan", "--config", cfg, "--out", out_path]) == 0
    assert open(out_path, "rb").read() == first
    capsys.readouterr()
    report = json.loads(first)
    deltas = {row["k"]: row["delta"] for row in report["per_k"]}
    assert deltas == {1: 0, 2: 1}
    assert report["delta_towers"][0]["consistent"]


# constructor trees that pinned reports (and the representation checks in
# test_varieties.py) run on, by name
PINNED_TREES = {
    "hyperplane-cut-veronese-3-2": {
        "constructor": "hyperplane_section",
        "base": {"constructor": "veronese", "n": 3, "d": 2},
        "hyperplane": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3],
    },
    "tangential-1-veronese-2-3": {
        "constructor": "tangential_projection",
        "base": {"constructor": "veronese", "n": 2, "d": 3},
        "points": 1,
    },
    # a cubic pulled back to a line of the chart has degree 6, so sampling
    # root-finds through the randomized equal-degree splitting
    "cubic-section-veronese-2-2": {
        "constructor": "hypersurface_section",
        "base": {"constructor": "veronese", "n": 2, "d": 2},
        "h": [
            [1, [3, 0, 0, 0, 0, 0]],
            [1, [0, 3, 0, 0, 0, 0]],
            [1, [0, 0, 0, 0, 0, 3]],
            [2, [1, 1, 1, 0, 0, 0]],
            [5, [0, 0, 1, 1, 1, 0]],
        ],
    },
}

# sha256 of the report with its two host-dependent fields dropped: the
# package version (read from installed metadata) and the echoed --out path.
# Test ids number the cases in this order, so new pins go at the end.
PINNED_REPORTS = {
    # deferred section, cone and map-image Hessians feed every contact corank
    ("contact-scan", "counter2", (1, 2)): "ec4420fb0f6922a83c83b25bd6d481460507bf3bf1f0f283b7a68fdb40ac142b",
    ("defect-scan", "veronese-2-3", (1, 3)): "389e794d7bf7584e3820132f6722d67e86751c67e0c620470cae5b0715a5c8bd",
    # the cone-section ruling scan: its square solver and underdetermined solves
    ("fiber-probe", "counter1", (1, 1)): "2f627ca640790398a65ff9d5d3cadaee83375f898ac96f2022c13b02e24f970f",
    # the numpy grid scan over a one-parameter chart
    ("fiber-probe", "rnc-6", (1, 1)): "e8eb0f7beffc7b3ff71d0496eca090ca99fbdd44eec4c480fa0e6795a81021b8",
    # a cone with a plane vertex
    ("contact-scan", "counter3-n3", (1, 2)): "fb01c7d2002613229180da85bb93f674ed911f336de1ed66514aea906e9c6187",
    # a hyperplane cut of a parametric handle
    ("contact-scan", "hyperplane-cut-veronese-3-2", (1, 2)): "06b7f8e0cafd0370c3ac5e6c63ba37be3f67304d2ddf0e21504263192e04cfdc",
    # chart jets through a linear projection
    ("contact-scan", "tangential-1-veronese-2-3", (1, 2)): "90905c27f9b9acbce8751b8711d70285db9fa2ce40591c29f50586d7d5e610fc",
    # the blocked grid scan over a two-parameter chart: the benchmark's probe
    ("fiber-probe", "veronese-2-4", (1, 1)): "2dbf12d6bdb42a65d45e9767e469c3a9fe22721b8cd8ff60339e79ab58233198",
    # sampling a section of a parametric handle by a cubic: degree-6 restrictions
    ("defect-scan", "cubic-section-veronese-2-2", (1, 2)): "e228eee78f45b43f84d76f61e4c317d4a1876d4bb487147226ec8f290d051de5",
    ("contact-scan", "cubic-section-veronese-2-2", (1, 2)): "d640b657c2c8ce7a98af28501235821d88d9fe028174b08853b2b27c9156a6d1",
}


@pytest.mark.parametrize("verb, variety, k_range", list(PINNED_REPORTS))
def test_report_bytes_are_pinned(tmp_path, capsys, verb, variety, k_range):
    tree = PINNED_TREES.get(variety, variety)
    cfg = write_config(tmp_path, {"variety": tree, "k_range": list(k_range), "seed": 0})
    out_path = tmp_path / "report.json"
    assert cli.main([verb, "--config", cfg, "--out", str(out_path)]) == 0
    capsys.readouterr()
    report = json.loads(out_path.read_text())
    del report["version"]
    del report["config"]["output"]["path"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_REPORTS[(verb, variety, k_range)]


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"variety": "veronese-2-2", "seed": 7})
    code, out, _ = run_cli(["defect-scan", "--config", cfg, "--seed", "99"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 99


def test_tracer_leaves_report_bytes_alone(tmp_path, capsys):
    """The benchmark's traced run patches package names by lookup; a rename
    here would silently drop its spans, so run it once on a real scan."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    cfg = write_config(tmp_path, {"variety": "rnc-4", "k_range": [1, 2], "seed": 3})
    out_path = tmp_path / "report.json"

    def report_bytes():
        assert cli.main(["defect-scan", "--config", cfg, "--out", str(out_path)]) == 0
        return out_path.read_bytes()

    plain = report_bytes()
    t = tracer.Tracer()
    t.install()
    try:
        traced = report_bytes()
    finally:
        t.uninstall()
    spans = len(t.spans)
    assert report_bytes() == traced == plain
    assert len(t.spans) == spans  # uninstall restored every binding
    capsys.readouterr()
    calls, _, _ = t.layer_totals()
    assert calls["algebra.rank"] > 0
    assert calls["secant.terracini_dim"] > 0
    assert calls["varieties.chart_jet2.parametric"] > 0


def test_projection_constructor_tree(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "variety": {
                "constructor": "tangential_projection",
                "base": {"constructor": "veronese", "n": 2, "d": 3},
                "points": 1,
            },
            "k_range": [1, 1],
        },
    )
    code, out, _ = run_cli(["defect-scan", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["variety"]["kind"] == "projection"
    assert report["variety"]["dim"] == 2


# -- contact-scan -------------------------------------------------------------


def test_contact_scan_flags_weak_defectivity(tmp_path, capsys):
    cfg = write_config(tmp_path, {"variety": "veronese-2-2", "k_range": [1, 1], "seed": 5})
    code, out, _ = run_cli(["contact-scan", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    [row] = report["per_k"]
    assert row["nu"] == 1 and row["weakly_defective"]
    assert report["nu_ge_delta"]["holds"]


def test_contact_scan_reports_undefined_nu(tmp_path, capsys):
    # the third secant of the quadratic Veronese fills its span: no
    # hyperplane is tangent at four general points
    cfg = write_config(tmp_path, {"variety": "veronese-2-2", "k_range": [3, 3], "seed": 5})
    code, out, _ = run_cli(["contact-scan", "--config", cfg], capsys)
    assert code == 0
    [row] = json.loads(out)["per_k"]
    assert row["nu"] == "undefined"
    assert row["hyperplane_space_dim"] == 0


# -- fiber-probe ---------------------------------------------------------------


def test_fiber_probe_birational_verdict(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"variety": "veronese-2-3", "k_range": [1, 1], "seed": 11}
    )
    code, out, _ = run_cli(["fiber-probe", "--config", cfg], capsys)
    assert code == 0
    [row] = json.loads(out)["per_k"]
    assert row["verdict"] == "BirationalEvidence"
    assert row["consensus_d"] == 1
    assert row["functoriality"]["span_consistent"]


def test_fiber_probe_budget_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"variety": {"constructor": "veronese", "n": 3, "d": 3}, "k_range": [1, 1]},
    )
    code, _, err = run_cli(["fiber-probe", "--config", cfg], capsys)
    assert code == 3
    assert "budget" in err


# -- formats -------------------------------------------------------------------


def test_csv_and_table_formats(tmp_path, capsys):
    cfg = write_config(tmp_path, {"variety": "veronese-2-2", "k_range": [1, 1]})
    code, out, _ = run_cli(["defect-scan", "--config", cfg, "--format", "csv"], capsys)
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header.split(",")[:3] == ["k", "dim_x", "expected_dim"]
    assert row.split(",")[0] == "1"
    code, out, _ = run_cli(["defect-scan", "--config", cfg, "--format", "table"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "defect-scan"
    assert "delta" in out.splitlines()[1]


# -- paper-suite wiring --------------------------------------------------------


def fake_suite(passed):
    crit = CriterionResult(
        cid=1, title="synthetic", passed=passed, details={}, elapsed=0.01
    )
    return SuiteResult(seed=0, criteria=(crit,))


def test_paper_suite_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_paper_suite", lambda seed, corrupt=False: fake_suite(True))
    code, out, _ = run_cli(["paper-suite"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True

    monkeypatch.setattr(cli, "run_paper_suite", lambda seed, corrupt=False: fake_suite(False))
    code, out, _ = run_cli(["paper-suite"], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_paper_suite_negative_control_flag(tmp_path, capsys, monkeypatch):
    seen = {}

    def spy(seed, corrupt=False):
        seen["corrupt"] = corrupt
        return fake_suite(not corrupt)

    monkeypatch.setattr(cli, "run_paper_suite", spy)
    code, out, _ = run_cli(["paper-suite", "--negative-control"], capsys)
    assert seen["corrupt"] is True
    assert code == 1
    assert json.loads(out)["negative_control"] is True
