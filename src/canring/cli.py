"""Command-line interface: divisor input, command dispatch, JSON and
pretty reports.

Exit codes: 0 success, 1 input error, 2 instability detected by scan,
3 internal assertion failure.  All numbers in JSON output are exact
(integers or "num/den" strings); reports re-serialize byte-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .conelattice import monomial_str
from .divisor import (
    QDivisor,
    degree_bounds,
    divisor_from_json,
    divisor_to_json,
    graded_dim,
)
from .errors import CanringError, TrivialRingError
from .exactla import FieldSpec
from .presentation import (
    brute_force_oracle,
    generic_configs,
    groebner_leading_terms,
    minimal_generators,
    minimal_relation_degrees,
    relation_ideal,
    stability_scan,
)
from .ratapprox import format_fraction, parse_fraction
from .twopoint import presentation_to_json, two_point_presentation


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


_DEFAULT_POINTS = ["inf", "0", "1", "-1", "2", "-2", "3", "-3", "4", "-4"]


def _load_divisor(args) -> tuple[QDivisor, FieldSpec]:
    if args.divisor:
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


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CanringError(f"cannot write report: {exc}") from exc
    else:
        print(text)


def cmd_dims(args) -> int:
    D, field = _load_divisor(args)
    top = args.max_degree if args.max_degree is not None else 30
    rows = [{"d": d, "dim": graded_dim(D, d)} for d in range(top + 1)]
    if args.json:
        report = {
            "command": "dims",
            "divisor": divisor_to_json(D, field.characteristic),
            "dims": rows,
        }
        _emit(args, canonical_json(report))
    else:
        lines = [f"graded dimensions of {D}"]
        lines += [f"  d={row['d']:4d}  dim={row['dim']}" for row in rows]
        _emit(args, "\n".join(lines))
    return 0


def cmd_twopoint(args) -> int:
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
        _emit(args, canonical_json(report) if args.json else
              f"degree {alpha + beta} < 0: the ring is trivial (constants only)")
        return 0
    if args.json:
        report = {"command": "twopoint", "trivial": False}
        report.update(presentation_to_json(pres))
        _emit(args, canonical_json(report))
    else:
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
        _emit(args, "\n".join(lines))
    return 0


def cmd_gens(args) -> int:
    D, field = _load_divisor(args)
    gens = minimal_generators(D, field, args.max_degree)
    if args.json:
        report = {
            "command": "gens",
            "config": divisor_to_json(D, field.characteristic),
            "generators": [
                {"degree": g.degree, "monomial": g.monomial.to_json()}
                for g in gens
            ],
        }
        _emit(args, canonical_json(report))
    else:
        lines = [f"minimal generators of {D} over {field}"]
        lines += [
            f"  degree {g.degree:4d}  {monomial_str(g.monomial)}" for g in gens
        ]
        lines.append(f"  ({len(gens)} generators)")
        _emit(args, "\n".join(lines))
    return 0


def cmd_rels(args) -> int:
    D, field = _load_divisor(args)
    gens = minimal_generators(D, field, args.max_degree)
    rels = relation_ideal(D, field, gens, args.truncation)
    if args.json:
        report = {
            "command": "rels",
            "config": divisor_to_json(D, field.characteristic),
            "generators": [
                {"degree": g.degree, "monomial": g.monomial.to_json()}
                for g in gens
            ],
            "relations": [
                {"degree": r.degree, "support_size": r.support_size} for r in rels
            ],
        }
        _emit(args, canonical_json(report))
    else:
        lines = [f"minimal relations of {D} over {field}"]
        for r in rels:
            terms = " + ".join(
                f"({format_fraction(c) if field.characteristic == 0 else c})*"
                + "*".join(
                    f"x{k + 1}^{e}" for k, e in enumerate(exps) if e
                )
                for exps, c in r.terms
            )
            lines.append(f"  degree {r.degree:4d}: {terms}")
        lines.append(f"  ({len(rels)} minimal relations)")
        _emit(args, "\n".join(lines))
    return 0


def cmd_groebner(args) -> int:
    D, field = _load_divisor(args)
    gens = minimal_generators(D, field, args.max_degree)
    report_obj = groebner_leading_terms(D, field, gens, args.truncation)
    if args.json:
        report = {
            "command": "groebner",
            "config": divisor_to_json(D, field.characteristic),
            "groebner": {
                "truncation": report_obj.truncation_degree,
                "order": report_obj.order,
                "leading_terms": [list(e) for e in report_obj.leading_terms],
            },
        }
        _emit(args, canonical_json(report))
    else:
        lines = [
            f"Groebner leading terms of {D} over {field} "
            f"(truncated at degree {report_obj.truncation_degree})"
        ]
        weights = [g.degree for g in gens]
        for e in report_obj.leading_terms:
            mono = "*".join(f"x{k + 1}^{x}" for k, x in enumerate(e) if x)
            deg = sum(w * x for w, x in zip(weights, e))
            lines.append(f"  degree {deg:4d}: {mono}")
        lines.append(f"  ({len(report_obj.leading_terms)} minimal leading terms)")
        _emit(args, "\n".join(lines))
    return 0


def cmd_scan(args) -> int:
    D, field = _load_divisor(args)
    chars = args.chars or [0, 2, 3, 5, 7]
    configs = []
    if args.points or args.divisor:
        configs.append((D.points, field.characteristic))
    configs += generic_configs(D.n, args.configs, chars, args.seed)
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
    if args.json:
        _emit(args, canonical_json(report))
    else:
        lines = [f"stability scan for alphas {report['alphas']} (seed {args.seed})"]
        for idx, run in enumerate(report["runs"]):
            cfg = run["config"]
            if run["skipped"]:
                lines.append(f"  run {idx:3d} char {cfg['char']:3d}: skipped ({run['reason']})")
                continue
            degs = sorted(g["degree"] for g in run["generators"])
            mark = "" if run.get("agrees", True) else "  <-- disagrees"
            lines.append(f"  run {idx:3d} char {cfg['char']:3d}: degrees {degs}{mark}")
        lines.append("stable" if report["stable"] else "UNSTABLE configuration detected")
        _emit(args, "\n".join(lines))
    return 0 if report["stable"] else 2


def cmd_oracle(args) -> int:
    D, field = _load_divisor(args)
    if args.max_degree is not None:
        window = args.max_degree
    else:
        window = degree_bounds(D)[1] if D.degree > 0 else 10
    if window < 2:
        raise CanringError(f"an oracle window of {window} compares no degree; it must be 2 or more")
    gens = minimal_generators(D, field, min(window, degree_bounds(D)[0]) if D.degree > 0 else window)
    engine = (
        sorted(g.degree for g in gens),
        minimal_relation_degrees(D, field, gens, window),
    )
    oracle = brute_force_oracle(D, field, window)
    match = engine == oracle
    if args.json:
        report = {
            "command": "oracle",
            "config": divisor_to_json(D, field.characteristic),
            "window": window,
            "engine": {"generators": engine[0], "relations": engine[1]},
            "oracle": {"generators": oracle[0], "relations": oracle[1]},
            "match": match,
        }
        _emit(args, canonical_json(report))
    else:
        _emit(args, "MATCH" if match else
              f"MISMATCH: engine {engine} vs oracle {oracle}")
    return 0 if match else 3


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--divisor", metavar="FILE", help="divisor JSON file")
    common.add_argument("--alphas", metavar="CSV", help="coefficients, e.g. -1/2,1/3,1/5")
    common.add_argument("--points", metavar="CSV", help="points, e.g. inf,0,1")
    common.add_argument("--char", type=int, default=None, help="field characteristic (0 or prime)")
    common.add_argument("--max-degree", type=_nonnegative, default=None, help="degree window for dims/gens")
    common.add_argument("--truncation", type=_nonnegative, default=None, help="degree window for rels/groebner")
    common.add_argument("--seed", type=int, default=0, help="seed for generic configurations")
    common.add_argument("--configs", type=_nonnegative, default=6, help="number of generic configurations")
    common.add_argument("--chars", metavar="CSV", type=_int_csv, default=None, help="characteristics for scan")
    common.add_argument("--output", metavar="FILE", help="write the report to a file")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable report")
    fmt.add_argument("--pretty", action="store_true", help="human-readable report (default)")

    parser = argparse.ArgumentParser(
        prog="canring",
        description="Presentations of section rings of rational divisors on the projective line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dims", parents=[common], help="graded dimensions").set_defaults(func=cmd_dims)
    sub.add_parser("twopoint", parents=[common], help="closed-form two-point presentation").set_defaults(func=cmd_twopoint)
    sub.add_parser("gens", parents=[common], help="minimal generators").set_defaults(func=cmd_gens)
    sub.add_parser("rels", parents=[common], help="minimal relations").set_defaults(func=cmd_rels)
    g = sub.add_parser("groebner", parents=[common], help="Groebner leading terms")
    g.set_defaults(func=cmd_groebner)
    scan = sub.add_parser("scan", parents=[common], help="stability scan over configurations")
    scan.add_argument("--groebner", action="store_true", help="compare leading-term sets as well")
    scan.add_argument("--relations", action="store_true",
                      help="report minimal relation degrees (never part of the verdict)")
    scan.set_defaults(func=cmd_scan)
    sub.add_parser("oracle", parents=[common], help="compare engine against the brute-force oracle").set_defaults(func=cmd_oracle)
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
        return args.func(args)
    except CanringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
