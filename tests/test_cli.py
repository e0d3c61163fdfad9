"""Command-line behavior: config validation, report shapes, exit codes."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from terracini import cli, fiber, varieties
from terracini.errors import ConfigError
from terracini.instances import builtin_blueprint
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


# a tangential projection is built around the whole tree below it, so it may
# only stand at the root of a tree
NESTED_PROJECTION = {
    "variety": {
        "constructor": "cone",
        "base": {
            "constructor": "tangential_projection",
            "base": {"constructor": "veronese", "n": 2, "d": 3},
            "points": 1,
        },
        "vertex": [[0] * 10 + [1]],
    }
}
RNC_PAST_CAP = {"variety": {"constructor": "rnc", "d": 100000000}}


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
        # a hyperplane cuts a curve down to points, which have no chart
        {"variety": {"constructor": "hyperplane_section", "base": {"constructor": "rnc", "d": 2}, "hyperplane": [1, 2, 3]}},
        NESTED_PROJECTION,
        # a projection needs at least one tangent space to project from
        {"variety": {"constructor": "tangential_projection", "base": {"constructor": "veronese", "n": 2, "d": 3}, "points": 0}},
        {"variety": {"constructor": "tangential_projection", "base": {"constructor": "veronese", "n": 2, "d": 3}, "points": -1}},
        # three tangent planes of the Veronese surface already fill P^5
        {"variety": {"constructor": "tangential_projection", "base": {"constructor": "veronese", "n": 2, "d": 2}, "points": 3}},
        # past the ambient cap, refused before the monomials are listed
        {"variety": {"constructor": "veronese", "n": 14, "d": 14}},
        RNC_PAST_CAP,
        {"variety": {"constructor": "veronese", "n": 10**18, "d": 2}},
        # a k range past the ambient cap would scan without end
        {"variety": "veronese-2-2", "k_range": [1, 1000000000]},
        # draw counts past the cap would run without end
        {"variety": "veronese-2-2", "trials": 1000000000},
        {"variety": "veronese-2-2", "samples": 1000000000},
    ],
)
def test_invalid_configs_exit_2(tmp_path, capsys, payload):
    code, _, err = run_cli(
        ["defect-scan", "--config", write_config(tmp_path, payload)], capsys
    )
    assert code == 2
    assert err.startswith("terracini:")
    if payload is RNC_PAST_CAP:
        # the error names the constructor the tree asked for
        assert "rnc(100000000) ambient dimension exceeds cap 120" in err


# cuts of the twisted cubic by the form x0, which is 1 all over its chart:
# a cut of a curve leaves points, with no chart to sample on
CURVE_CUTS = {
    "hypersurface": {"constructor": "hypersurface_section", "base": {"constructor": "rnc", "d": 3}, "h": [[1, [1, 0, 0, 0]]]},
    "hyperplane": {"constructor": "hyperplane_section", "base": {"constructor": "rnc", "d": 3}, "hyperplane": [1, 0, 0, 0]},
}


@pytest.mark.parametrize("verb", ["defect-scan", "contact-scan", "fiber-probe"])
@pytest.mark.parametrize("cut", sorted(CURVE_CUTS))
def test_both_cuts_of_a_curve_exit_2(tmp_path, capsys, cut, verb):
    """Both cut kinds share one dimension guard, so neither samples a section
    of dimension 0 until the resample cap."""
    code, out, err = run_cli([verb, "--config", write_config(tmp_path, {"variety": CURVE_CUTS[cut]})], capsys)
    assert (code, out) == (2, "")
    assert "a cut needs dimension >= 2" in err


# cubic cuts by forms that vanish on their base: x0 x3 - x1^2 on the conic
# Veronese surface (1 * v^2 - v * v), and x0 x2 - x1^2 on counter1's cone,
# whose first coordinates are z^2, yz and y^2
VANISHING_CUTS = {
    "veronese-2-2": (
        {"constructor": "veronese", "n": 2, "d": 2},
        [[1, [1, 0, 0, 1, 0, 0]], [-1, [0, 2, 0, 0, 0, 0]]],
    ),
    "counter1-cone": (
        builtin_blueprint("counter1")["base"],
        [[1, [1, 0, 1, 0, 0, 0, 0, 0]], [-1, [0, 2, 0, 0, 0, 0, 0, 0]]],
    ),
}


@pytest.mark.parametrize("key", sorted(VANISHING_CUTS))
def test_cut_by_a_form_vanishing_on_its_base_exits_2(tmp_path, capsys, key):
    """The zero check reads the cut's own kernel at five base draws, and a
    form that vanishes on the whole base is still refused."""
    base, h = VANISHING_CUTS[key]
    tree = {"constructor": "hypersurface_section", "base": base, "h": h}
    config = write_config(tmp_path, {"variety": tree, "k_range": [1, 1]})
    code, out, err = run_cli(["defect-scan", "--config", config], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("terracini:") and "vanishes identically" in err and "Traceback" not in err


# trees outside the paper's standing hypotheses that used to read as a
# defective line or run into the resample cap: the lines x0 = 0 and x2 = 0,
# and a map_image with one component, whose image is a point
DEGENERATE_TREES = {
    "line-x0": ({"constructor": "implicit_plane_curve", "terms": [[1, [1, 0, 0]]], "genus_hint": 0}, "degree >= 2"),
    "line-x2": ({"constructor": "implicit_plane_curve", "terms": [[1, [0, 0, 1]]], "genus_hint": 0}, "degree >= 2"),
    "point-image": (
        {"constructor": "map_image", "base": {"constructor": "veronese", "n": 2, "d": 1}, "components": [[[1, [1, 0, 0]]]], "arity": 3},
        "spans one point",
    ),
}


@pytest.mark.parametrize("key", sorted(DEGENERATE_TREES))
def test_degenerate_trees_exit_2(tmp_path, capsys, key):
    tree, message = DEGENERATE_TREES[key]
    config = write_config(tmp_path, {"variety": tree, "k_range": [1, 1]})
    code, out, err = run_cli(["defect-scan", "--config", config], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("terracini:") and message in err and "Traceback" not in err


def map_image_chain(depth):
    """A tree of ``depth`` constructor nodes: rnc-2 under depth - 1 identity
    map_image nodes."""
    node = {"constructor": "rnc", "d": 2}
    for _ in range(depth - 1):
        components = [[[1, [1, 0, 0]]], [[1, [0, 1, 0]]], [[1, [0, 0, 1]]]]
        node = {"constructor": "map_image", "base": node, "components": components, "arity": 3}
    return node


# tree values past the ambient cap: witness draws, or power tables, without
# end, or a chain of bases that builds past the interpreter's stack
UNBOUNDED_TREES = {
    "depth-121": map_image_chain(121),
    "depth-700": map_image_chain(700),
    "points": {"constructor": "tangential_projection", "base": {"constructor": "veronese", "n": 2, "d": 2}, "points": 10**6},
    "terms": {"constructor": "implicit_plane_curve", "terms": [[1, [10**9, 0, 0]]], "genus_hint": 1},
    "h": {"constructor": "hypersurface_section", "base": {"constructor": "veronese", "n": 2, "d": 2}, "h": [[1, [10**9, 0, 0, 0, 0, 0]]]},
    "components": {"constructor": "map_image", "base": {"constructor": "rnc", "d": 2}, "components": [[[1, [10**9, 0, 0]]]], "arity": 3},
}


@pytest.mark.parametrize("key", sorted(UNBOUNDED_TREES))
def test_unbounded_tree_values_exit_2_at_once(tmp_path, capsys, key):
    tree = UNBOUNDED_TREES[key]
    # run the verb only once validation is known to refuse the tree
    with pytest.raises(ConfigError, match="at most 120"):
        varieties.check_tree(tree)
    start = time.perf_counter()
    code, out, err = run_cli(["fiber-probe", "--config", write_config(tmp_path, {"variety": tree})], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("terracini:") and "Traceback" not in err


# configs that json.load itself refuses: an integer past Python's digit
# limit for int(), and arrays nested past the interpreter's stack
UNPARSABLE_CONFIGS = {
    "long-integer": (
        '{"variety": {"constructor": "hyperplane_section", "base": {"constructor": "rnc", "d": 3}, '
        '"hyperplane": [%s, 1, 1, 1]}}' % ("9" * 5000)
    ),
    "deep-nesting": '{"variety": ' + "[" * 3000 + "]" * 3000 + "}",
}


@pytest.mark.parametrize("name", sorted(UNPARSABLE_CONFIGS))
def test_configs_json_cannot_load_exit_2(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_text(UNPARSABLE_CONFIGS[name])
    code, out, err = run_cli(["defect-scan", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("terracini:") and "Traceback" not in err


def test_readme_constructors_line_matches_the_table():
    """README's "Constructors:" line documents exactly the constructors and
    keys of the one table that config validation and ``build`` read."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    line = " ".join(readme.split("Constructors:", 1)[1].split("\n\n", 1)[0].split())
    documented = {
        name: [key.strip() for key in keys.split(",")]
        for name, keys in re.findall(r"`(\w+) \{([^}]*)\}`", line.split(".", 1)[0])
    }
    assert documented == {name: list(keys) for name, (keys, _) in varieties.CONSTRUCTORS.items()}


def test_nested_tangential_projection_is_rejected_as_root_only(tmp_path, capsys):
    code, out, err = run_cli(
        ["defect-scan", "--config", write_config(tmp_path, NESTED_PROJECTION)], capsys
    )
    assert (code, out) == (2, "")
    assert "'tangential_projection' is allowed only at the root" in err


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


# psi_12 and psi_13: strong pseudoprimes to every base up to 37, which
# Miller-Rabin on those bases takes for primes
@pytest.mark.parametrize("modulus", [318665857834031151167461, 3317044064679887385961981])
def test_field_primes_past_2_64_exit_2(tmp_path, capsys, modulus):
    cfg = write_config(tmp_path, {"variety": "veronese-2-2"})
    code, out, err = run_cli(["defect-scan", "--config", cfg, "--field-prime", str(modulus)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("terracini:") and "2^64" in err and "Traceback" not in err


def test_field_prime_below_2_64_is_accepted(tmp_path, capsys):
    cfg = write_config(tmp_path, {"variety": "veronese-2-2", "k_range": [1, 1]})
    code, out, _ = run_cli(["defect-scan", "--config", cfg, "--field-prime", str(2**61 - 1)], capsys)
    assert code == 0
    assert json.loads(out)["per_k"][0]["delta"] == 1


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


def test_tower_row_is_a_note_when_the_projection_drops_dimension(tmp_path, capsys):
    """delta_k(X) = delta_1 of the (k-1)-tangential projection needs that
    projection to be generically finite.  For v_2(P^10) at k = 8 it is not:
    the 7-tangential projection is a threefold, delta_8 is 3 and its own
    delta_1 is 1, so the tower row degenerates and the scan passes."""
    cfg = write_config(tmp_path, {"variety": "veronese-10-2", "k_range": [8, 8], "seed": 0})
    code, out, _ = run_cli(["defect-scan", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    assert [row["delta"] for row in report["per_k"]] == [3]
    assert report["delta_towers"] == [
        {"k": 8, "note": "tower degenerates: the 7-tangential projection has dimension 3, below 10"}
    ]


def test_both_tower_verbs_write_the_same_note_for_a_projection_that_drops_dimension(tmp_path, capsys):
    """nu_k(X) = nu_1 of the (k-1)-tangential projection presumes the same
    finiteness as the delta tower, and contact-scan degenerates its rows by
    the same rule: for v_2(P^10) at k = 8..10 the projections are a
    threefold, a surface and a curve."""
    cfg = write_config(tmp_path, {"variety": "veronese-10-2", "k_range": [8, 10], "seed": 0})
    notes = [
        {"k": k, "note": f"tower degenerates: the {k - 1}-tangential projection has dimension {d}, below 10"}
        for k, d in ((8, 3), (9, 2), (10, 1))
    ]
    for verb, key in (("contact-scan", "nu_towers"), ("defect-scan", "delta_towers")):
        code, out, _ = run_cli([verb, "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)[key] == notes


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
    # a cone with a plane vertex; its 1-tangential projection drops to a
    # surface, so the k = 2 nu tower row is a note
    ("contact-scan", "counter3-n3", (1, 2)): "44ec9d52e49e11f4da1286d8feffb85df3c0aac2175d7e45eaaac550fb88bec1",
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


def report_digest(tmp_path, capsys, verb, tree, k_range, seed, **options):
    cfg = write_config(tmp_path, {"variety": tree, "k_range": list(k_range), "seed": seed, **options})
    out_path = tmp_path / "report.json"
    assert cli.main([verb, "--config", cfg, "--out", str(out_path)]) == 0
    capsys.readouterr()
    report = json.loads(out_path.read_text())
    del report["version"]
    del report["config"]["output"]["path"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("verb, variety, k_range", list(PINNED_REPORTS))
def test_report_bytes_are_pinned(tmp_path, capsys, verb, variety, k_range):
    tree = PINNED_TREES.get(variety, variety)
    digest = report_digest(tmp_path, capsys, verb, tree, k_range, 0)
    assert digest == PINNED_REPORTS[(verb, variety, k_range)]


# fiber-probe reports at k = 1 through the parametric grid scan, on two- and
# one-parameter charts, digested as above.  They were captured from the
# scan that swept the grid once per probe point, so they pin the one-pass
# scan, on its key-product pass, to the same counts and center hits.
GRID_SCAN_TREES = {
    "veronese-2-3": "veronese-2-3",
    "veronese-2-4": "veronese-2-4",
    "rnc-5-tree": {"constructor": "rnc", "d": 5},
}
GRID_SCAN_REPORTS = {
    ("veronese-2-3", 0): "5ff91e54b8124b8ae24552598feb1cc1689482282116e22eef5b2232489fd591",
    ("veronese-2-3", 1): "d05aa5cfbf647f064da24d1c69bc68f331f4c446ed74562f4e2b466f318df30d",
    ("veronese-2-3", 2): "b6d8e4dd13ef027d50ef103849400bbeb2a144b6516dfd882020642d79b26f4f",
    ("veronese-2-4", 0): "2dbf12d6bdb42a65d45e9767e469c3a9fe22721b8cd8ff60339e79ab58233198",
    ("veronese-2-4", 1): "34d86096707da25f8f8a2fec3be6b2e4b9bf5cae530b95b6515d255d9d4c5baa",
    ("veronese-2-4", 2): "e34d9f995dff1162cf92fd86327796f7a8ceeb7427acdf05b8ca5df4b5052565",
    ("rnc-5-tree", 0): "6099edadc3953d72986818bba7c02dbf7742fc32d67dfac9d98975d78db0e0ba",
    ("rnc-5-tree", 1): "58a2fb7103101cfad7935f3252c7ce54278fe9278978db434ef66b9e54ded08c",
    ("rnc-5-tree", 2): "764b4ea89c8b30c0166b8e3ec8e09a3404be06bc8b2b27c202dcafa0f5319460",
}


@pytest.mark.parametrize("variety, seed", list(GRID_SCAN_REPORTS))
def test_grid_scan_fiber_reports_are_pinned(tmp_path, capsys, variety, seed):
    digest = report_digest(tmp_path, capsys, "fiber-probe", GRID_SCAN_TREES[variety], (1, 1), seed)
    assert digest == GRID_SCAN_REPORTS[(variety, seed)]


# 30-trial fiber-probe reports, digested as above.  Thirty keys times the
# chart's degree pass KEY_PRODUCT_DEGREE, so both scan through the ratio
# key: the keyed pass, with the exact check behind it.  They were captured
# from the check that evaluated one projected row at a time.
KEYED_PASS_REPORTS = {
    ("veronese-2-4", 1, 3): "ab14cc8522295388612bed582503e2f1f587340d332aedc4dcc8e300f76e5363",
    ("veronese-2-6", 8, 5): "8fd7d92f8df18386f5bcb049c25cff8c6b5517f8cff8a95eba840e109f92bfc0",
}


@pytest.mark.parametrize("variety, k, seed", list(KEYED_PASS_REPORTS))
def test_keyed_pass_fiber_reports_are_pinned(tmp_path, capsys, variety, k, seed):
    digest = report_digest(tmp_path, capsys, "fiber-probe", variety, (k, k), seed, trials=30)
    assert digest == KEYED_PASS_REPORTS[(variety, k, seed)]


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


def test_python_m_terracini_runs_fiber_probe(tmp_path):
    """A source checkout runs the CLI as ``python -m terracini`` with only
    ``src`` on the path, no install needed."""
    cfg = write_config(tmp_path, {"variety": "rnc-4", "k_range": [1, 1], "seed": 3})
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "terracini", "fiber-probe", "--config", cfg],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "fiber-probe"
    [row] = report["per_k"]
    assert row["verdict"] == "BirationalEvidence"
    assert row["cardinalities"] == {str(p): [1] * 5 for p in (1009, 2003, 3001)}


def test_fiber_probe_refuses_a_projection_root_before_any_rebuild(tmp_path, capsys, monkeypatch):
    """Only parametric charts and cone sections over plane curves can be
    enumerated.  README's projection tree is neither, which fiber-probe says
    before it rebuilds anything over an enumeration prime."""

    def no_rebuild(*args, **kwargs):
        raise AssertionError("fiber-probe rebuilt a tree it cannot enumerate")

    monkeypatch.setattr(fiber, "build", no_rebuild)
    tree = PINNED_TREES["tangential-1-veronese-2-3"]
    cfg = write_config(tmp_path, {"variety": tree, "k_range": [1, 1]})
    code, out, err = run_cli(["fiber-probe", "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert "no enumeration strategy for projection handles" in err


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


# sha256 of the csv and table output at seed 0.  The structured digests above
# sort their keys, so only these catch a change in the order of per_k columns;
# the fiber-probe range starts at k = 0 to mix a note row with full rows.
FORMAT_PINS = {
    ("defect-scan", "veronese-2-2", (1, 2), "csv"): "464e1f7df4c0f3b08962451d0e22a6809923b7aa0710ea8650c28e50ffc028ee",
    ("defect-scan", "veronese-2-2", (1, 2), "table"): "93a93192b18e7b8c7179b6e707318db6e71a61f68f4973c0e6716476d960bdcd",
    ("contact-scan", "veronese-2-2", (1, 2), "csv"): "02804cc72bac87379da401d0c4880179802e34422b4c555f53b591fe3dadb39d",
    ("contact-scan", "veronese-2-2", (1, 2), "table"): "38dbaee409828e490e2f04022632c318a06504bafbe7d7f895fd3dc98f126b05",
    ("fiber-probe", "rnc-4", (0, 1), "csv"): "06a662fe63b99edcaf2b89cec0bb3ad28c7d8dfc83d7f6555c6970f49c0cc8d7",
    ("fiber-probe", "rnc-4", (0, 1), "table"): "71511a0219be418c75e025c3bcce7177fd3c1be2fe2599c3e7e1df8b287a3789",
}


@pytest.mark.parametrize("verb, variety, k_range, fmt", list(FORMAT_PINS))
def test_csv_and_table_bytes_are_pinned(tmp_path, capsys, verb, variety, k_range, fmt):
    cfg = write_config(tmp_path, {"variety": variety, "k_range": list(k_range), "seed": 0})
    code, out, _ = run_cli([verb, "--config", cfg, "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_PINS[(verb, variety, k_range, fmt)]


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
