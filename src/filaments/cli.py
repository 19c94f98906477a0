"""Command-line front end.

Subcommands: trace (render a spacetime diagram), classify (cycle
detection for one trajectory), census (exhaustive state-space
classification), population (growth experiment, CSV), search (rule-space
scans), rule-info (structural classification), rule-fmt (parse and
reserialize a rule).

Exit codes: 0 success, 1 usage error, 2 unresolved or incomplete result,
3 internal error.

Initial-state specs accept several forms:
  "01120"            explicit cells
  "[0 2^{n-1}]"      run-length tokens; n is the --length value
  "zeros-then-ones"  shorthand for [0^{n-1} 1]
  "uniform:2"        every cell in one state (needs --length)
  "random:7"         seeded uniform cells (needs --length)
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .analysis import census
from .core import Filament, Rule
from .engine import detect_cycle, run_trace
from .population import (
    PopulationConfig,
    run_population,
    turnover_report,
    write_per_filament_csv,
    write_population_csv,
)
from .render import render_ascii, render_pgm
from .rules import classify_rule, rule_named, serialize_rule
from .search import hunt_viable_3state, rule_from_index, rule_index, search_type_a
from .search import write_rule_audit_csv, write_witness_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(f"{self.prog}: {message}")


def _resolve_rule(spec: str) -> Rule:
    m = re.fullmatch(r"rule-(\d+)", spec)
    if m:
        return rule_from_index(int(m.group(1)))
    return rule_named(spec)


_TOKEN_RE = re.compile(r"^(\d)(?:\^(?:\{([^}]*)\}|(\d+)))?$")


def _eval_count(expr: str, length: Optional[int]) -> int:
    total = 0
    sign = 1
    for tok in re.findall(r"\d+|[+-]|n|\S", expr.replace(" ", "")):
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif tok == "n":
            if length is None:
                raise UsageError("pattern uses n but no --length was given")
            total += sign * length
        elif tok.isdigit():
            total += sign * int(tok)
        else:
            raise UsageError(f"bad repeat count {expr!r}")
    return total


def parse_initial(spec: str, length: Optional[int], num_states: int) -> Filament:
    """Build the initial filament an init spec denotes."""
    if length is not None and length < 1:
        raise UsageError(f"--length must be at least 1, not {length}")
    spec = spec.strip()
    if spec == "zeros-then-ones":
        spec = "[0^{n-1} 1]"
    if spec.startswith("random:"):
        if length is None:
            raise UsageError("random initial states need --length")
        seed = int(spec.split(":", 1)[1])
        rng = np.random.default_rng(seed)
        return Filament.random(num_states, length, rng)
    if spec.startswith("uniform:"):
        if length is None:
            raise UsageError("uniform initial states need --length")
        value = int(spec.split(":", 1)[1])
        if not 0 <= value < num_states:
            raise UsageError(f"state {value} is out of range for a {num_states}-state rule")
        return Filament.uniform(value, length)
    cells: list[int] = []
    if "[" in spec or "^" in spec or " " in spec:
        body = spec.strip("[]")
        for token in body.split():
            m = _TOKEN_RE.match(token)
            if m:
                digit = int(m.group(1))
                expr = m.group(2) if m.group(2) is not None else m.group(3)
                count = 1 if expr is None else _eval_count(expr, length)
                if count < 0:
                    raise UsageError(f"token {token!r} repeats a negative number of times")
                cells.extend([digit] * count)
            elif token.isdigit():
                cells.extend(int(ch) for ch in token)
            else:
                raise UsageError(f"bad pattern token {token!r}")
    elif spec.isdigit():
        cells = [int(ch) for ch in spec]
    else:
        raise UsageError(f"unrecognized initial spec {spec!r}")
    if not cells:
        raise UsageError("initial spec denotes an empty filament")
    if length is not None and len(cells) != length:
        raise UsageError(
            f"initial spec has {len(cells)} cells but --length is {length}"
        )
    if max(cells) >= num_states:
        raise UsageError(
            f"cell state {max(cells)} is out of range for a {num_states}-state rule"
        )
    return Filament(tuple(cells))


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_lengths(spec: str) -> tuple[int, ...]:
    lengths: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        m = re.fullmatch(r"(\d+)\.\.(\d+)", part)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if hi < lo:
                raise UsageError(f"empty length range {part!r}")
            lengths.extend(range(lo, hi + 1))
        elif part.isdigit():
            lengths.append(int(part))
        else:
            raise UsageError(f"bad length spec {part!r}")
    return tuple(lengths)


def _build_parser() -> _Parser:
    parser = _Parser(prog="filaments", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rule_init(p: _Parser, steps: bool) -> None:
        p.add_argument("--rule", required=True, help="catalogue name, clock-<s>, rule-<index>, or file path")
        p.add_argument("--init", required=True, help="initial state spec")
        p.add_argument("--length", type=int, help="filament length for patterns that need it")
        if steps:
            p.add_argument("--steps", type=int, required=True, help="steps to simulate")

    p = sub.add_parser("trace", help="render a spacetime diagram")
    add_rule_init(p, steps=True)
    p.add_argument("--format", choices=("ascii", "pgm"), default="ascii")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("classify", help="detect the trajectory's cycle")
    add_rule_init(p, steps=False)
    p.add_argument("--horizon", type=int, help="max steps before giving up")
    p.add_argument("--k-a", type=int, default=2, help="Type A change threshold")

    p = sub.add_parser("census", help="classify every length-n state")
    p.add_argument("--rule", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--predictor", default="auto", choices=("auto", "none"))
    p.add_argument("--budget", type=int, default=10**7)

    p = sub.add_parser("population", help="run a growth experiment, emit CSV")
    p.add_argument("--rule", required=True)
    p.add_argument("--m", type=int, required=True, help="population size")
    p.add_argument("--ticks", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n0", type=int, default=20)
    p.add_argument("--growth-interval", type=int)
    p.add_argument("--live-metric", choices=("activity", "classification"), default="activity")
    p.add_argument("--growth-rescale", action="store_true")
    p.add_argument("--out", help="CSV file (default stdout)")
    p.add_argument("--per-filament-csv", help="also write per-filament liveness CSV here")
    p.add_argument("--turnover-window", type=int, help="print a turnover report to stderr")

    p = sub.add_parser("search", help="scan a rule space")
    p.add_argument("--space", choices=("2-state", "3-state-sweeps", "3-state-symmetric-sample"), default="2-state")
    p.add_argument("--lengths", help="2-state scan lengths, e.g. 4..10 (the default) or 4,6,8")
    p.add_argument("--k-a", type=int, help="2-state Type A change threshold (default 2)")
    p.add_argument("--budget", type=int, help="sample count of the 3-state-symmetric-sample space")
    p.add_argument("--seed", type=int, help="seed of the 3-state-symmetric-sample draw (default 0)")
    p.add_argument("--hunt-lengths", help="probe lengths for the 3-state spaces (default 4,5)")
    p.add_argument("--audit-csv", help="write every rule's classification as CSV here")
    p.add_argument("--witness-csv", help="write one CSV row per witness rule here")
    p.add_argument("--out", help="report file (default stdout)")

    p = sub.add_parser("rule-info", help="print a rule's structural classification")
    p.add_argument("--rule", required=True)

    p = sub.add_parser("rule-fmt", help="parse a rule and print its canonical text form")
    p.add_argument("--rule", required=True)
    p.add_argument("--out")

    return parser


def _cmd_trace(args: argparse.Namespace) -> int:
    rule = _resolve_rule(args.rule)
    initial = parse_initial(args.init, args.length, rule.num_states)
    if args.steps < 0:
        raise UsageError("--steps must be non-negative")
    trace = run_trace(rule, initial, args.steps)
    if args.format == "ascii":
        text = render_ascii(trace)
    else:
        text = render_pgm(trace, rule.num_states)
    _write_out(text, args.out)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    rule = _resolve_rule(args.rule)
    initial = parse_initial(args.init, args.length, rule.num_states)
    report = detect_cycle(rule, initial, horizon=args.horizon, k_a=args.k_a)
    lines = [f"outcome: {report.outcome}"]
    if report.outcome == "cyclic":
        lines += [
            f"transient: {report.transient}",
            f"period: {report.period}",
            f"wave: {report.wave.kind}",
            f"k_max: {report.wave.k_max}",
        ]
    elif report.outcome == "quiescent":
        lines += [f"settle_time: {report.settle_time}"]
    lines += [f"horizon: {report.horizon}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_UNRESOLVED if report.outcome == "unresolved" else EXIT_OK


def _cmd_census(args: argparse.Namespace) -> int:
    rule = _resolve_rule(args.rule)
    predictor = None if args.predictor == "none" else "auto"
    result = census(
        rule, args.n, horizon=args.horizon, predictor=predictor, budget=args.budget
    )
    sys.stdout.write(result.report())
    return EXIT_UNRESOLVED if result.unresolved else EXIT_OK


def _cmd_population(args: argparse.Namespace) -> int:
    rule = _resolve_rule(args.rule)
    config = PopulationConfig(
        rule=rule,
        m=args.m,
        total_ticks=args.ticks,
        seed=args.seed,
        n0=args.n0,
        growth_interval=args.growth_interval,
        live_metric=args.live_metric,
        growth_rescale=args.growth_rescale,
    )
    run = run_population(config)
    if args.out is None:
        write_population_csv(run, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            write_population_csv(run, fh)
    if args.per_filament_csv:
        with open(args.per_filament_csv, "w", newline="") as fh:
            write_per_filament_csv(run, fh)
    if args.turnover_window is not None:
        sys.stderr.write(turnover_report(run, args.turnover_window).report())
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    two_state, sampled = args.space == "2-state", args.space == "3-state-symmetric-sample"
    for flag, value, applies, where in (
        ("--budget", args.budget, sampled, "the 3-state-symmetric-sample space"),
        ("--seed", args.seed, sampled, "the 3-state-symmetric-sample space"),
        ("--hunt-lengths", args.hunt_lengths, not two_state, "the 3-state spaces"),
        ("--lengths", args.lengths, two_state, "the 2-state space"),
        ("--k-a", args.k_a, two_state, "the 2-state space"),
        ("--audit-csv", args.audit_csv, two_state, "the 2-state space"),
        ("--witness-csv", args.witness_csv, two_state, "the 2-state space"),
    ):
        if value is not None and not applies:
            raise UsageError(f"{flag} only applies to {where}")
    if two_state:
        lengths = _parse_lengths("4..10" if args.lengths is None else args.lengths)
        verdict = search_type_a(lengths=lengths, k_a=2 if args.k_a is None else args.k_a)
        if args.audit_csv:
            with open(args.audit_csv, "w") as fh:
                write_rule_audit_csv(fh)
        if args.witness_csv:
            with open(args.witness_csv, "w", newline="") as fh:
                write_witness_csv(verdict.witnesses, fh)
        _write_out(verdict.report(), args.out)
        return EXIT_OK if verdict.complete else EXIT_UNRESOLVED
    ns = _parse_lengths("4,5" if args.hunt_lengths is None else args.hunt_lengths)
    if not sampled:
        result = hunt_viable_3state(ns=ns)
    else:
        if args.budget is None:
            raise UsageError("the sampled symmetric space needs --budget")
        result = hunt_viable_3state(
            ns=ns, space="symmetric-sample", budget=args.budget, seed=args.seed
        )
    _write_out(result.report(), args.out)
    return EXIT_OK


def _cmd_rule_info(args: argparse.Namespace) -> int:
    rule = _resolve_rule(args.rule)
    info = classify_rule(rule)
    lines = [
        f"name: {rule.name}",
        f"num_states: {rule.num_states}",
        f"radius: {rule.radius}",
        f"symmetric: {str(rule.symmetric).lower()}",
        f"entries: {len(rule.entries)}",
        f"oblivious: {str(info.oblivious).lower()}",
    ]
    if info.oblivious_witness is not None:
        lines.append(f"oblivious_witness: {info.oblivious_witness}")
    lines += [
        f"strongly_connected: {str(info.strongly_connected).lower()}",
        f"min_out_degree: {info.min_out_degree}",
        f"interesting: {str(info.interesting).lower()}",
    ]
    if rule.num_states == 2 and rule.radius == 1:
        lines.append(f"index: {rule_index(rule)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_rule_fmt(args: argparse.Namespace) -> int:
    rule = _resolve_rule(args.rule)
    _write_out(serialize_rule(rule), args.out)
    return EXIT_OK


_COMMANDS = {
    "trace": _cmd_trace,
    "classify": _cmd_classify,
    "census": _cmd_census,
    "population": _cmd_population,
    "search": _cmd_search,
    "rule-info": _cmd_rule_info,
    "rule-fmt": _cmd_rule_fmt,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError) as exc:  # UsageError and RuleParseError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse --help exits 0; propagate that as success.
        return int(exc.code or 0)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
