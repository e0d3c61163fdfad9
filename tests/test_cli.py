"""Command-line behavior: config validation, report shapes, exit codes."""

import hashlib
import json

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
        {"variety": "no-such-builtin"},
        # a repeated prime would count as two primes agreeing
        {"variety": "veronese-1-4", "enum_primes": [1009, 1009]},
        {"variety": "veronese-2-2", "enum_primes": [9, 1009]},
    ],
)
def test_invalid_configs_exit_2(tmp_path, capsys, payload):
    code, _, err = run_cli(
        ["defect-scan", "--config", write_config(tmp_path, payload)], capsys
    )
    assert code == 2
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


# sha256 of the report with its two host-dependent fields dropped: the
# package version (read from installed metadata) and the echoed --out path
PINNED_REPORTS = {
    ("defect-scan", "veronese-2-3", (1, 3)): "389e794d7bf7584e3820132f6722d67e86751c67e0c620470cae5b0715a5c8bd",
    # deferred section, cone and map-image Hessians feed every contact corank
    ("contact-scan", "counter2", (1, 2)): "ec4420fb0f6922a83c83b25bd6d481460507bf3bf1f0f283b7a68fdb40ac142b",
    # the cone-section ruling scan: its square solver and underdetermined solves
    ("fiber-probe", "counter1", (1, 1)): "2f627ca640790398a65ff9d5d3cadaee83375f898ac96f2022c13b02e24f970f",
}


@pytest.mark.parametrize("verb, variety, k_range", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(tmp_path, capsys, verb, variety, k_range):
    cfg = write_config(tmp_path, {"variety": variety, "k_range": list(k_range), "seed": 0})
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
