"""Command-line front end.

Four verbs: ``defect-scan``, ``contact-scan``, ``fiber-probe`` drive the
corresponding analysis on one configured variety; ``paper-suite`` runs the
eleven built-in checks.  Reports are deterministic functions of the resolved
configuration: identical config and seed give byte-identical output files.
Wall-clock time is printed to stderr only, never into the report, because
byte identity is part of the contract.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration or
construction error, 3 enumeration budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from importlib import metadata
from typing import Optional

from .algebra import FieldSpec
from .contact import DEFAULT_HYPERPLANE_DRAWS, check_nu_ge_delta, check_nu_tower, nu_estimate
from .errors import (
    BudgetExhausted,
    CenterFillsAmbient,
    ConfigError,
    ConstructionError,
    FieldMismatchError,
    SamplingExhausted,
    TerraciniError,
)
from .fiber import (
    DEFAULT_FIBER_PRIMES,
    DEFAULT_FIBER_TRIALS,
    fiber_probe,
    tangent_functoriality_check,
)
from .instances import ANALYSIS_PRIME, builtin, builtin_blueprint
from .secant import DEFAULT_TRIALS, check_delta_tower, defect, min_defective_k
from .seeding import derive_rng
from .suite import canonical_json, run_paper_suite, suite_payload
from .varieties import AMBIENT_CAP, _is_int, build, check_tree

__all__ = ["RunConfig", "load_config", "main"]

SCHEMA = "terracini-report/v1"
FORMATS = ("table", "csv", "structured")
# cap on ``trials`` and ``samples``: 1,000 draws run in well under a second on
# the built-ins, while a count of 10^9 would scan without end
MAX_DRAWS = 1000


def _version() -> str:
    try:
        return metadata.version("terracini")
    except metadata.PackageNotFoundError:
        return "unknown"


class RunConfig:
    """Resolved run configuration; every random draw downstream is a pure
    function of ``seed``."""

    def __init__(self, raw: dict) -> None:
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {
            "variety",
            "field",
            "enum_primes",
            "k_range",
            "trials",
            "samples",
            "seed",
            "output",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.variety = raw.get("variety")
        if self.variety is not None:
            if isinstance(self.variety, str):
                builtin_blueprint(self.variety)  # validates the name
            else:
                check_tree(self.variety)
        self.field = _checked_prime(raw.get("field", ANALYSIS_PRIME), "field")
        primes = raw.get("enum_primes", list(DEFAULT_FIBER_PRIMES))
        if not isinstance(primes, list):
            raise ConfigError("enum_primes must be a list of distinct primes")
        for p in primes:
            _checked_prime(p, "enum_primes")
        if len(set(primes)) != len(primes):
            raise ConfigError(f"enum_primes lists a prime twice: {primes}")
        self.enum_primes = tuple(primes)
        k_range = raw.get("k_range", [1, 1])
        if (
            not isinstance(k_range, list)
            or len(k_range) != 2
            or not all(_is_int(k) for k in k_range)
            or not 0 <= k_range[0] <= k_range[1]
        ):
            raise ConfigError("k_range must be [k_min, k_max] with 0 <= k_min <= k_max")
        if k_range[1] > AMBIENT_CAP:
            # no buildable variety spans more than P^AMBIENT_CAP, so every secant
            # variety past this k has long filled its span
            raise ConfigError(f"k_range k_max {k_range[1]} exceeds the ambient cap {AMBIENT_CAP}")
        self.k_range = (k_range[0], k_range[1])
        self.trials = self._int(raw, "trials", DEFAULT_TRIALS, minimum=1, maximum=MAX_DRAWS)
        self.samples = self._int(raw, "samples", DEFAULT_HYPERPLANE_DRAWS, minimum=1, maximum=MAX_DRAWS)
        self.seed = self._int(raw, "seed", 0, minimum=0)
        output = raw.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("output must be an object")
        unknown = set(output) - {"path", "format"}
        if unknown:
            raise ConfigError(f"unknown output keys: {sorted(unknown)}")
        self.out_path: Optional[str] = output.get("path")
        if self.out_path is not None and not isinstance(self.out_path, str):
            raise ConfigError("output.path must be a string")
        self.format = output.get("format", "structured")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}")

    @staticmethod
    def _int(raw: dict, key: str, default: int, minimum: int, maximum: int | None = None) -> int:
        val = raw.get(key, default)
        if not _is_int(val) or val < minimum:
            raise ConfigError(f"{key} must be an integer >= {minimum}")
        if maximum is not None and val > maximum:
            raise ConfigError(f"{key} {val} exceeds the cap {maximum}")
        return val

    def echo(self) -> dict:
        return {
            "variety": self.variety,
            "field": self.field,
            "enum_primes": list(self.enum_primes),
            "k_range": list(self.k_range),
            "trials": self.trials,
            "samples": self.samples,
            "seed": self.seed,
            "output": {"path": self.out_path, "format": self.format},
        }


def _checked_prime(p, key: str) -> int:
    """The one primality rule, ``FieldSpec``'s, for every prime in a config."""
    try:
        FieldSpec.prime(p)
    except ConstructionError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return p


def load_config(path: Optional[str], args: argparse.Namespace, need_variety: bool) -> RunConfig:
    """Read the config file, fold the command-line overrides into it, and
    validate the result as one whole."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            # an integer past Python's digit limit, or nesting past the stack
            raise ConfigError(f"config {path}: {exc}") from exc
    if isinstance(raw, dict):
        raw = dict(raw)
        for key, flag in (("seed", args.seed), ("field", args.field_prime)):
            if flag is not None:
                raw[key] = flag
        output = raw.get("output", {})
        if isinstance(output, dict):
            output = dict(output)
            for key, flag in (("path", args.out), ("format", args.format)):
                if flag is not None:
                    output[key] = flag
            raw["output"] = output
    cfg = RunConfig(raw)
    if need_variety and cfg.variety is None:
        raise ConfigError("this command needs a 'variety' entry in --config")
    return cfg


def _construct(cfg: RunConfig):
    field = FieldSpec.prime(cfg.field)
    rng = derive_rng(cfg.seed, "cli", "build")
    if isinstance(cfg.variety, str):
        return builtin(cfg.variety, field, rng)
    return build(cfg.variety, field, rng)


# ---------------------------------------------------------------------------
# per-verb report assembly
# ---------------------------------------------------------------------------


def _report_shell(command: str, cfg: RunConfig) -> dict:
    return {
        "schema": SCHEMA,
        "version": _version(),
        "command": command,
        "config": cfg.echo(),
        "wall_clock_seconds": None,
    }


def _scan(cfg: RunConfig, command: str, per_k_row, tower=None, tower_fields=()):
    """The skeleton of every scan verb: build the variety, open the report
    with its variety block and assumptions, then one ``per_k`` row for each k
    and, from k = 2, one tower row.  Returns the handle, the report and the
    tower rows."""
    x = _construct(cfg)
    rng = derive_rng(cfg.seed, "cli", command)
    report = _report_shell(command, cfg)
    report["variety"] = {
        "label": x.label,
        "kind": x.kind,
        "ambient_r": x.ambient_r,
        "dim": x.intrinsic_dim(rng),
        "span_dim": x.span_dim(),
    }
    report["assumptions"] = list(x.assumptions())
    k_min, k_max = cfg.k_range
    per_k, towers = [], []
    for k in range(k_min, k_max + 1):
        per_k.append(per_k_row(x, k))
        if tower is not None and k >= 2:
            towers.append(_tower_row(k, lambda: tower(x, k), tower_fields))
    report["per_k"] = per_k
    return x, report, towers


def _tower_row(k: int, check, fields) -> dict:
    """One ``delta_towers`` or ``nu_towers`` row.  A tower whose projection
    collapses or is not generically finite becomes a ``{k, note}`` row, which
    never fails the scan."""
    try:
        tower = check()
    except (CenterFillsAmbient, SamplingExhausted) as exc:
        return {"k": k, "note": f"tower degenerates: {exc}"}
    if not tower.generically_finite:
        return {
            "k": k,
            "note": f"tower degenerates: the {k - 1}-tangential projection has "
            f"dimension {tower.dim_projected}, below {tower.dim_x}",
        }
    return {"k": k, **{field: getattr(tower, field) for field in fields}, "consistent": tower.consistent}


def cmd_defect_scan(cfg: RunConfig) -> tuple[dict, bool]:
    def row(x, k):
        prof = defect(x, k, derive_rng(cfg.seed, "cli", "defect", k), trials=cfg.trials)
        return {
            "k": k,
            "dim_x": prof.dim_x,
            "expected_dim": prof.expected,
            "secant_dim": prof.actual,
            "delta": prof.delta,
            "defective": prof.defective,
        }

    def tower(x, k):
        return check_delta_tower(x, k, derive_rng(cfg.seed, "cli", "tower", k), trials=cfg.trials)

    x, report, towers = _scan(
        cfg, "defect-scan", row, tower, ("delta_k", "delta_one_projected", "center_rank")
    )
    report["delta_towers"] = towers
    report["min_defective_k"] = min_defective_k(
        x, max(cfg.k_range[1], 1), derive_rng(cfg.seed, "cli", "mindef"), trials=cfg.trials
    )
    ok = all(t.get("consistent", True) for t in towers)
    return report, ok


def cmd_contact_scan(cfg: RunConfig) -> tuple[dict, bool]:
    def row(x, k):
        est = nu_estimate(
            x, k, derive_rng(cfg.seed, "cli", "contact", k), hyperplane_draws=cfg.samples
        )
        return {
            "k": k,
            "nu": "undefined" if est.nu is None else est.nu,
            "hyperplane_space_dim": est.hyperplane_space_dim,
            "weakly_defective": est.weakly_defective,
        }

    def tower(x, k):
        return check_nu_tower(
            x, k, derive_rng(cfg.seed, "cli", "nu-tower", k), hyperplane_draws=cfg.samples
        )

    x, report, towers = _scan(cfg, "contact-scan", row, tower, ("nu_k", "nu_one_projected"))
    comparison = check_nu_ge_delta(
        x, max(cfg.k_range[1], 1), derive_rng(cfg.seed, "cli", "nu-ge-delta")
    )
    report["nu_towers"] = towers
    report["nu_ge_delta"] = {
        "min_defective_k": comparison.min_defective_k,
        "delta": comparison.delta,
        "nu": comparison.nu,
        "holds": comparison.holds,
    }
    ok = all(t.get("consistent", True) for t in towers) and comparison.holds
    return report, ok


def cmd_fiber_probe(cfg: RunConfig) -> tuple[dict, bool]:
    def row(x, k):
        if k == 0:
            return {"k": 0, "note": "projection from zero points is the identity"}
        try:
            rep = fiber_probe(
                x,
                k,
                derive_rng(cfg.seed, "cli", "fiber", k),
                primes=cfg.enum_primes,
                trials=max(cfg.trials, DEFAULT_FIBER_TRIALS),
            )
            fun = tangent_functoriality_check(x, k, derive_rng(cfg.seed, "cli", "functorial", k))
        except CenterFillsAmbient as exc:
            return {"k": k, "note": f"no projection: {exc}"}
        return {
            "k": k,
            "verdict": rep.verdict,
            "consensus_d": rep.consensus_d,
            "trials": rep.trials,
            "primes": list(rep.primes),
            "cardinalities": {str(p): list(c) for p, c in rep.cardinalities.items()},
            "center_hits": {str(p): h for p, h in rep.center_hits.items()},
            "tangent_agreement": rep.tangent_agreement,
            "functoriality": {
                "generically_finite": fun.generically_finite,
                "span_consistent": fun.span_consistent,
                "frame_ranks": list(fun.frame_ranks),
            },
        }

    _, report, _ = _scan(cfg, "fiber-probe", row)
    ok = all(
        row["functoriality"]["span_consistent"]
        for row in report["per_k"]
        if "functoriality" in row and row["functoriality"]["generically_finite"]
    )
    return report, ok


def cmd_paper_suite(cfg: RunConfig, corrupt: bool) -> tuple[dict, bool]:
    result = run_paper_suite(cfg.seed, corrupt=corrupt)
    report = _report_shell("paper-suite", cfg)
    report["negative_control"] = corrupt
    report.update(suite_payload(result))
    elapsed = {c.cid: c.elapsed for c in result.criteria}
    return report, result.passed, elapsed


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _csv_rows(report: dict) -> tuple[list[str], list[list]]:
    cmd = report["command"]
    if cmd == "paper-suite":
        header = ["id", "passed", "title"]
        rows = [[c["id"], c["passed"], c["title"]] for c in report["criteria"]]
        return header, rows
    keys: list[str] = []
    for row in report["per_k"]:
        for key in row:
            if key not in keys:
                keys.append(key)
    rows = []
    for row in report["per_k"]:
        rows.append([json.dumps(row.get(k), sort_keys=True) if isinstance(row.get(k), (dict, list)) else row.get(k, "") for k in keys])
    return keys, rows


def render_csv(report: dict) -> str:
    header, rows = _csv_rows(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_table(report: dict) -> str:
    header, rows = _csv_rows(report)
    cells = [[("" if v is None else str(v)) for v in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in cells)) if cells else len(header[i])
        for i in range(len(header))
    ]
    lines = [report["command"]]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    if report["command"] == "paper-suite":
        lines.append("")
        lines.append(f"suite: {'PASS' if report['passed'] else 'FAIL'} (seed {report['seed']})")
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "structured":
        return canonical_json(report)
    if fmt == "csv":
        return render_csv(report)
    return render_table(report)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terracini",
        description="Secant defects, contact loci, and tangential projections over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("defect-scan", "secant dimensions and defects across a k range"),
        ("contact-scan", "contact coranks, weak-defectivity flags, nu towers"),
        ("fiber-probe", "small-prime fiber counts of tangential projections"),
        ("paper-suite", "run the eleven built-in checks"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", metavar="PATH", help="JSON run configuration")
        sp.add_argument("--seed", type=int, metavar="N", help="override the config seed")
        sp.add_argument("--field-prime", type=int, metavar="P", help="override the analysis prime")
        sp.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=FORMATS, help="report format (default structured)")
        if name == "paper-suite":
            sp.add_argument(
                "--negative-control",
                action="store_true",
                help="corrupt one pinned instance to demonstrate failure detection",
            )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.command == "paper-suite":
            cfg = load_config(args.config, args, need_variety=False)
            report, ok, elapsed = cmd_paper_suite(cfg, args.negative_control)
            for cid in sorted(elapsed):
                print(f"criterion {cid}: {elapsed[cid]:.2f}s", file=sys.stderr)
        elif args.command == "defect-scan":
            cfg = load_config(args.config, args, need_variety=True)
            report, ok = cmd_defect_scan(cfg)
        elif args.command == "contact-scan":
            cfg = load_config(args.config, args, need_variety=True)
            report, ok = cmd_contact_scan(cfg)
        else:
            cfg = load_config(args.config, args, need_variety=True)
            report, ok = cmd_fiber_probe(cfg)
        _emit(render(report, cfg.format), cfg.out_path)
    except (ConfigError, ConstructionError, FieldMismatchError) as exc:
        print(f"terracini: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print(f"terracini: {exc}", file=sys.stderr)
        return 3
    except TerraciniError as exc:
        print(f"terracini: {exc}", file=sys.stderr)
        return 1
    print(f"wall-clock: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
