"""Command line front end.

Four commands: ``bound`` runs the metric-to-bound chain for a scenario,
``simulate`` adds a Monte Carlo readout run, ``verify`` executes the
self-check suites, ``list-scenarios`` shows the bundled library.
Scenario configs are YAML files; a bare name refers to a bundled one.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from .reports import render_summary, write_report
from .scenarios import (ScenarioError, bundled_scenario_names, load_bundled,
                        resolve_scenario, run_bound, run_simulate)
from .simulate import SEEDS
from .verify import SUITES, run_verify


def _checked(convert, valid, expected: str):
    """An argparse type: the converted text, where valid holds for it.
    Text that convert refuses argparse reports as an invalid convert value."""
    def parse(text: str):
        if valid(value := convert(text)):
            return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    parse.__name__ = convert.__name__
    return parse


#: --out, checked before any run: a non-directory in an existing directory
_out_path = _checked(str, lambda p: os.path.basename(p) != "" and not os.path.isdir(p)
                     and os.path.isdir(os.path.dirname(os.path.abspath(p))),
                     "a file path in an existing directory")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="metricprobe",
        description="Estimation bounds for metric parameters read out by "
                    "Gaussian field probes.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_seed=False):
        sp.add_argument("--config", required=True,
                        help="scenario YAML path, or the name of a bundled scenario")
        sp.add_argument("--out", default=None, type=_out_path,
                        help="write the full JSON report to this path")
        sp.add_argument("--resolution", default=1.0, metavar="MULT",
                        type=_checked(float, lambda m: math.isfinite(m) and m > 0,
                                      "a positive finite number"),
                        help="scale quadrature resolutions by this factor")
        if with_seed:
            sp.add_argument("--seed", default=None,
                            type=_checked(int, SEEDS.__contains__, "an integer in [0, 2^128)"),
                            help="override the scenario RNG seed")

    add_common(sub.add_parser(
        "bound", help="compute the estimation bound for one scenario"))
    add_common(sub.add_parser(
        "simulate", help="bound plus a Monte Carlo readout comparison"),
        with_seed=True)

    v = sub.add_parser("verify", help="run the numerical self-check suites")
    v.add_argument("--suite", action="append", default=None, choices=list(SUITES),
                   metavar="NAME", help="suite to run (repeatable; default all): "
                                        + ", ".join(SUITES))
    v.add_argument("--out", default=None, type=_out_path,
                   help="write the full JSON report to this path")

    sub.add_parser("list-scenarios", help="list the bundled scenario library")
    return p


def _cmd_run(args) -> int:
    """bound or simulate: the summary on stdout, the report in --out."""
    sc = resolve_scenario(args.config)
    if args.command == "simulate":
        report = run_simulate(sc, seed=args.seed, resolution_mult=args.resolution)
    else:
        report = run_bound(sc, resolution_mult=args.resolution)
    sys.stdout.write(render_summary(report))
    if args.out:
        write_report(report, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(args.suite)
    for name, suite in report["suites"].items():
        sys.stdout.write(f"suite {name}\n")
        for chk in suite["checks"]:
            mark = " ok " if chk["passed"] else "FAIL"
            sys.stdout.write(
                f"  [{mark}] {chk['name']}: residual {chk['residual']:.3e} "
                f"{chk['comparison']} {chk['tolerance']:.3e}\n")
    verdict = "all checks passed" if report["all_passed"] else "CHECKS FAILED"
    sys.stdout.write(verdict + "\n")
    if args.out:
        write_report(report, args.out)
    return 0 if report["all_passed"] else 1


def _cmd_list(_args) -> int:
    for name in bundled_scenario_names():
        sc = load_bundled(name)
        desc = " ".join(sc.description.split())
        sys.stdout.write(f"{name}  ({sc.kind})\n    {desc}\n")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "bound": _cmd_run,
        "simulate": _cmd_run,
        "verify": _cmd_verify,
        "list-scenarios": _cmd_list,
    }[args.command]
    try:
        return handler(args)
    except ScenarioError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
