"""Command-line front end.

Subcommands:

* ``run <scenario.json>``  -- execute one scenario file, write/print the
  report, exit 0 iff every check passed;
* ``verify-all``           -- run every bundled scenario;
* ``clark``                -- print the Clark measure of an inner function
  at one spectral parameter as ``angle,mass`` CSV;
* ``perturb``              -- print the perturbed spectral measure of a line
  model at one coupling as ``position,mass`` CSV.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import ClarkLabError, ScenarioError
from .fields import _count
from .herglotz import blaschke_from_json_dict
from .rankone import clark_measure, model_from_json_dict, perturb_selfadjoint
from .scenarios import RunReport, report_to_json, run_scenario


def _parse_unimodular(text: str) -> complex:
    s = text.strip().replace("i", "j")
    try:
        if s.startswith("angle:"):
            val = cmath.exp(1j * float(s.split(":", 1)[1]))
        else:
            val = complex(s)
    except ValueError as exc:
        raise ScenarioError(
            f"--alpha: cannot parse {text!r} (use e.g. '0.6+0.8j', '1j' or "
            "'angle:1.5708')") from exc
    if not abs(abs(val) - 1.0) <= 1e-9:
        raise ScenarioError(f"--alpha: |{text}| = {abs(val)} is not unimodular")
    return val / abs(val)


def _workers(args) -> int:
    if args.workers is not None:
        return _count(args.workers, "--workers")
    env = os.environ.get("CLARK_LAB_WORKERS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError as exc:
        raise ScenarioError(
            f"CLARK_LAB_WORKERS: expected an integer, got {env!r}") from exc
    return _count(workers, "CLARK_LAB_WORKERS")


def _emit_report(report: RunReport, out: str | None, timings: bool) -> None:
    text = report_to_json(report, timings=timings)
    if out:
        Path(out).write_text(text + "\n")
    summary = report.summary()
    print(f"{report.scenario}: {summary['passed']}/{summary['total']} checks passed")
    for rec in report.records:
        if not rec.passed:
            print(f"  FAIL {rec.check} {rec.parameters} observed={rec.observed} "
                  f"expected={rec.expected} tol={rec.tolerance}")


def _cmd_run(args) -> int:
    report = run_scenario(args.scenario, workers=_workers(args))
    _emit_report(report, args.out, args.timings)
    return 0 if report.all_passed else 1


def _bundled_scenarios() -> list:
    root = resources.files("clarklab") / "scenarios"
    return sorted((p for p in root.iterdir() if p.name.endswith(".json")),
                  key=lambda p: p.name)


def _cmd_verify_all(args) -> int:
    status = 0
    for path in _bundled_scenarios():
        report = run_scenario(json.loads(path.read_text()),
                              workers=_workers(args))
        out = None
        if args.out_dir:
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
            out = str(Path(args.out_dir) / f"{report.scenario}.report.json")
        _emit_report(report, out, args.timings)
        if not report.all_passed:
            status = 1
    return status


def _cmd_clark(args) -> int:
    theta = blaschke_from_json_dict(json.loads(Path(args.theta).read_text()),
                                    "--theta")
    alpha = _parse_unimodular(args.alpha)
    mu = clark_measure(theta, alpha)
    print("angle,mass")
    for angle, mass in zip(mu.angles, mu.masses):
        print(f"{angle!r},{mass!r}")
    return 0


def _cmd_perturb(args) -> int:
    model = model_from_json_dict(json.loads(Path(args.model).read_text()), "--model")
    mu = perturb_selfadjoint(model, args.lam)
    print("position,mass")
    for pos, mass in zip(mu.positions, mu.masses):
        print(f"{pos!r},{mass!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clark-lab",
        description="Numerical laboratory for Clark measures and finite-rank "
                    "spectral perturbations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=None, help="write the report JSON here")
    p_run.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks byte-identity)")
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("verify-all", help="run every bundled scenario")
    p_all.add_argument("--workers", type=int, default=None)
    p_all.add_argument("--out-dir", default=None)
    p_all.add_argument("--timings", action="store_true")
    p_all.set_defaults(func=_cmd_verify_all)

    p_clark = sub.add_parser("clark", help="Clark measure atoms/masses as CSV")
    p_clark.add_argument("--theta", required=True,
                         help="JSON file {\"zeros\": [[re,im],...], \"c\": [re,im]}")
    p_clark.add_argument("--alpha", required=True,
                         help="unimodular complex, e.g. '0.6+0.8j' or 'angle:1.5708'")
    p_clark.set_defaults(func=_cmd_clark)

    p_pert = sub.add_parser("perturb", help="perturbed line measure as CSV")
    p_pert.add_argument("--model", required=True,
                        help="JSON file {\"kind\": \"line\", \"sites\": [...], \"weights\": [...]}")
    p_pert.add_argument("--lambda", dest="lam", type=float, required=True)
    p_pert.set_defaults(func=_cmd_perturb)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClarkLabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
