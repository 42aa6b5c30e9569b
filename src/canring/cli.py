"""Command-line interface: divisor input, command dispatch, JSON and
pretty reports.

Each cmd_* handler returns its (report, lines, exit code); `main` alone
emits it, as canonical JSON of the report under --json and as the lines
otherwise, to stdout or to --output FILE.

Exit codes: 0 success, 1 input error (a window too large for memory
included) or a closed stdout, 2 instability detected by scan,
3 internal assertion failure or an oracle MISMATCH.  All numbers in JSON output are exact
(integers or "num/den" strings); reports re-serialize byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .conelattice import monomial_str
from .divisor import QDivisor, divisor_from_json, divisor_to_json, graded_dim
from .errors import CanringError, TrivialRingError
from .exactla import FieldSpec
from .presentation import (
    _groebner,
    _presentation,
    _relations,
    _window,
    brute_force_oracle,
    generic_configs,
    minimal_generators,
    stability_scan,
)
from .ratapprox import format_fraction, parse_fraction
from .twopoint import presentation_to_json, two_point_presentation


Outcome = tuple[dict, list[str], int]  # (report, lines, exit code)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


_DEFAULT_POINTS = ["inf", "0", "1", "-1", "2", "-2", "3", "-3", "4", "-4"]


def _load_divisor(args) -> tuple[QDivisor, FieldSpec]:
    if args.divisor:
        if args.alphas is not None or args.points is not None:
            raise CanringError("give --divisor FILE or --alphas CSV [--points CSV], not both")
        try:
            with open(args.divisor, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise CanringError(f"cannot read divisor file: {exc}") from exc
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise CanringError(f"{args.divisor} is not a JSON file: {exc}") from exc
        D, char = divisor_from_json(obj)
        if args.char is not None:
            char = args.char
        return D, FieldSpec(char)
    if not args.alphas:
        raise CanringError("provide --divisor FILE or --alphas CSV")
    alphas = [parse_fraction(a) for a in _split_csv(args.alphas)]
    if args.points:
        points = _split_csv(args.points)
        if len(points) != len(alphas):
            raise CanringError(
                f"{len(points)} points given for {len(alphas)} coefficients"
            )
    else:
        if len(alphas) > len(_DEFAULT_POINTS):
            raise CanringError("too many coefficients for default points")
        points = _DEFAULT_POINTS[: len(alphas)]
    D = QDivisor.of(points, alphas)
    return D, FieldSpec(args.char or 0)


def _emit(args, report: dict, lines: list[str]) -> None:
    """Write the report as canonical JSON under --json, else its lines."""
    text = canonical_json(report) if args.json else "\n".join(lines)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CanringError(f"cannot write report: {exc}") from exc
    else:
        print(text, flush=True)  # a closed stdout raises here, inside main


def cmd_dims(args) -> Outcome:
    D, field = _load_divisor(args)
    top = args.max_degree if args.max_degree is not None else 30
    rows = [{"d": d, "dim": graded_dim(D, d)} for d in range(top + 1)]
    report = {
        "command": "dims",
        "divisor": divisor_to_json(D, field.characteristic),
        "dims": rows,
    }
    lines = [f"graded dimensions of {D}"]
    lines += [f"  d={row['d']:4d}  dim={row['dim']}" for row in rows]
    return report, lines, 0


def cmd_twopoint(args) -> Outcome:
    D, field = _load_divisor(args)
    if D.n > 2:
        raise CanringError(f"twopoint needs at most 2 points, divisor has {D.n}")
    alpha = D.alphas[0]
    beta = D.alphas[1] if D.n == 2 else Fraction(0)
    try:
        pres = two_point_presentation(alpha, beta)
    except TrivialRingError:
        report = {
            "command": "twopoint",
            "alpha": format_fraction(alpha),
            "beta": format_fraction(beta),
            "trivial": True,
        }
        return report, [f"degree {alpha + beta} < 0: the ring is trivial (constants only)"], 0
    report = {"command": "twopoint", "trivial": False}
    report.update(presentation_to_json(pres))
    lines = [
        f"two-point ring for alpha={format_fraction(alpha)}, "
        f"beta={format_fraction(beta)}",
        f"  {len(pres.generators)} generators f_{-pres.neg_count}..f_{pres.pos_count}"
        f" (degree, exponent):",
    ]
    for i, v in zip(pres.indices, pres.generators):
        lines.append(f"    f_{i} = t^{v.c} u^{v.d}")
    lines.append(f"  {len(pres.relations)} relations:")
    for r in pres.relations:
        rhs = f"f_{r.h}^{r.a}" + (f" f_{r.h + 1}^{r.b}" if r.b else "")
        lines.append(f"    f_{r.i} f_{r.j} = {rhs}")
    if pres.is_polynomial_ring:
        lines.append("  (free polynomial ring)")
    return report, lines, 0


def cmd_gens(args) -> Outcome:
    D, field = _load_divisor(args)
    gens = minimal_generators(D, field, args.max_degree)
    report = {
        "command": "gens",
        "config": divisor_to_json(D, field.characteristic),
        "generators": [g.to_json() for g in gens],
    }
    lines = [f"minimal generators of {D} over {field}"]
    lines += [f"  degree {g.degree:4d}  {monomial_str(g.monomial)}" for g in gens]
    lines.append(f"  ({len(gens)} generators)")
    return report, lines, 0


def cmd_rels(args) -> Outcome:
    D, field = _load_divisor(args)
    gens, passed, _ = _presentation(D, field, args.max_degree, args.truncation, relations=True)
    rels = _relations(field, gens, passed)
    report = {
        "command": "rels",
        "config": divisor_to_json(D, field.characteristic),
        "generators": [g.to_json() for g in gens],
        "relations": [r.summary() for r in rels],
    }
    lines = [f"minimal relations of {D} over {field}"]
    for r in rels:
        terms = " + ".join(
            f"({format_fraction(c) if field.characteristic == 0 else c})*"
            + "*".join(f"x{k + 1}^{e}" for k, e in enumerate(exps) if e)
            for exps, c in r.terms
        )
        lines.append(f"  degree {r.degree:4d}: {terms}")
    lines.append(f"  ({len(rels)} minimal relations)")
    return report, lines, 0


def cmd_groebner(args) -> Outcome:
    D, field = _load_divisor(args)
    gens, passed, truncation = _presentation(D, field, args.max_degree, args.truncation)
    gb = _groebner(passed, truncation)
    report = {
        "command": "groebner",
        "config": divisor_to_json(D, field.characteristic),
        "groebner": {
            "truncation": gb.truncation_degree,
            "order": gb.order,
            "leading_terms": [list(e) for e in gb.leading_terms],
        },
    }
    lines = [
        f"Groebner leading terms of {D} over {field} "
        f"(truncated at degree {gb.truncation_degree})"
    ]
    for e in gb.leading_terms:
        mono = "*".join(f"x{k + 1}^{x}" for k, x in enumerate(e) if x)
        deg = sum(g.degree * x for g, x in zip(gens, e))
        lines.append(f"  degree {deg:4d}: {mono}")
    lines.append(f"  ({len(gb.leading_terms)} minimal leading terms)")
    return report, lines, 0


def cmd_scan(args) -> Outcome:
    D, field = _load_divisor(args)
    configs = []
    if args.points or args.divisor:
        configs.append((D.points, field.characteristic))
    configs += generic_configs(D.n, args.configs, args.chars, args.seed)
    report = stability_scan(
        D.alphas,
        configs,
        up_to=args.max_degree,
        with_groebner=args.groebner,
        with_relations=args.relations,
        truncation=args.truncation,
    )
    report["command"] = "scan"
    report["seed"] = args.seed
    lines = [f"stability scan for alphas {report['alphas']} (seed {args.seed})"]
    for idx, run in enumerate(report["runs"]):
        head = f"  run {idx:3d} char {run['config']['char']:3d}:"
        if run["skipped"]:
            lines.append(f"{head} skipped ({run['reason']})")
        else:
            degs = sorted(g["degree"] for g in run["generators"])
            mark = "" if run["agrees"] else "  <-- disagrees"
            lines.append(f"{head} degrees {degs}{mark}")
    lines.append("stable" if report["stable"] else "UNSTABLE configuration detected")
    return report, lines, 0 if report["stable"] else 2


def cmd_oracle(args) -> Outcome:
    D, field = _load_divisor(args)
    window = args.max_degree
    if window is None:
        # the relation window; at least 10 when deg D <= 0
        window = _window(D, None, 1)
        if D.degree <= 0:
            window = max(window, 10)
    if window < 1:
        raise CanringError(f"an oracle window of {window} compares no degree; it must be 1 or more")
    # the oracle first: its size guard refuses before any engine work
    oracle = brute_force_oracle(D, field, window)
    # generators through the window, as the oracle picks them
    gens, passed, _ = _presentation(D, field, None, window, relations=True, ceiling=window + 1)
    engine = (
        sorted(g.degree for g in gens),
        sorted(r.degree for r in _relations(field, gens, passed)),
    )
    match = engine == oracle
    report = {
        "command": "oracle",
        "config": divisor_to_json(D, field.characteristic),
        "window": window,
        "engine": {"generators": engine[0], "relations": engine[1]},
        "oracle": {"generators": oracle[0], "relations": oracle[1]},
        "match": match,
    }
    line = "MATCH" if match else f"MISMATCH: engine {engine} vs oracle {oracle}"
    return report, [line], 0 if match else 3


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_csv(text: str) -> list[int]:
    try:
        return [int(part) for part in _split_csv(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flags it reads
    divisor = argparse.ArgumentParser(add_help=False)
    divisor.add_argument("--divisor", metavar="FILE", help="divisor JSON file")
    divisor.add_argument("--alphas", metavar="CSV", help="coefficients, e.g. -1/2,1/3,1/5")
    divisor.add_argument("--points", metavar="CSV", help="points, e.g. inf,0,1")
    divisor.add_argument("--char", type=int, default=None, help="field characteristic (0 or prime)")
    divisor.add_argument("--output", metavar="FILE", help="write the report to a file")
    fmt = divisor.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable report")
    fmt.add_argument("--pretty", action="store_true", help="human-readable report (default)")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--max-degree", metavar="N", type=_nonnegative, default=None,
                        help="gens, rels, groebner, scan: generators of degree < N; "
                        "dims, oracle: degrees through N")
    truncation = argparse.ArgumentParser(add_help=False)
    truncation.add_argument("--truncation", metavar="T", type=_nonnegative, default=None,
                            help="relations and Groebner leading terms through degree T")

    parser = argparse.ArgumentParser(
        prog="canring",
        description="Presentations of section rings of rational divisors on the projective line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *parents) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, parents=[divisor, *parents], help=help_text)
        cmd.set_defaults(func=func)
        return cmd

    command("dims", cmd_dims, "graded dimensions", window)
    command("twopoint", cmd_twopoint, "closed-form two-point presentation")
    command("gens", cmd_gens, "minimal generators", window)
    command("rels", cmd_rels, "minimal relations", window, truncation)
    command("groebner", cmd_groebner, "Groebner leading terms", window, truncation)
    scan = command("scan", cmd_scan, "stability scan over configurations", window, truncation)
    scan.add_argument("--seed", type=int, default=0, help="seed for generic configurations")
    scan.add_argument("--configs", type=_nonnegative, default=6, help="number of generic configurations")
    scan.add_argument("--chars", metavar="CSV", type=_int_csv, default=[0, 2, 3, 5, 7],
                      help="characteristics for scan")
    scan.add_argument("--groebner", action="store_true", help="compare leading-term sets as well")
    scan.add_argument("--relations", action="store_true",
                      help="report minimal relation degrees (never part of the verdict)")
    command("oracle", cmd_oracle, "compare engine against the brute-force oracle", window)
    return parser


_CSV_FLAGS = ("--alphas", "--points", "--chars")


def _preprocess(argv: Sequence[str]) -> list[str]:
    """Glue CSV flag values on with '=' so coefficients like -1/2 are never
    mistaken for option switches."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _CSV_FLAGS:
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_preprocess(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        report, lines, code = args.func(args)
        _emit(args, report, lines)
        return code
    except BrokenPipeError:
        # the reader closed stdout: send the unwritten rest to devnull, so
        # that the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CanringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError) as exc:
        # a degree window or truncation too large to allocate its tables
        print(f"error: the requested degrees do not fit in memory ({type(exc).__name__})", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
