"""Seeded workloads of the canring benchmark.

A workload turns a seed into a list of jobs.  Each job is one item the
user waits on: ``run`` does the timed work through names exported by the
``canring`` package and returns its outputs; ``check`` judges them outside
the timed region, against independent references and the values recorded
in ``expected.json``, and returns a failure reason or None.

Every workload has a fixed anchor instance: its report, laid out as the
``canring`` CLI lays out its JSON reports, is hashed with sha256 and
compared with the recorded digest, so a change of output shows even where
the seed changes the rest of the inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import canring
from canring.cli import canonical_json
from canring.divisor import divisor_to_json
from canring.presentation import relation_evaluates_to_zero

BIG_PRIME = (1 << 61) - 1


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]


def digest(report) -> str:
    return hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest()


def _degrees(records) -> list[int]:
    return sorted(r.degree for r in records)


def _engine_reports(D, field, gens, rels, groebner) -> list[dict]:
    """The reports `canring rels --json` and `canring groebner --json` print."""
    config = divisor_to_json(D, field.characteristic)
    generators = [{"degree": g.degree, "monomial": g.monomial.to_json()} for g in gens]
    return [
        {
            "command": "rels",
            "config": config,
            "generators": generators,
            "relations": [
                {"degree": r.degree, "support_size": r.support_size} for r in rels
            ],
        },
        {
            "command": "groebner",
            "config": config,
            "generators": generators,
            "groebner": {
                "truncation": groebner.truncation_degree,
                "order": groebner.order,
                "leading_terms": [list(e) for e in groebner.leading_terms],
            },
        },
    ]


def _presentation(D, field, truncation=None):
    gens = canring.minimal_generators(D, field)
    rels = canring.relation_ideal(D, field, gens, truncation)
    groebner = canring.groebner_leading_terms(D, field, gens, truncation)
    return gens, rels, groebner


# ---------------------------------------------------------------------------
# chords-qq, chords-gfp: one certified presentation of a special divisor

CHORD_ALPHAS = tuple(Fraction(a) for a in ("-1/2", "-1/2", "1/3", "1/3", "1/5", "1/5"))
CHORD_BASE = tuple(Fraction(v) for v in (0, 1, 2, 3, 4))


def concurrent_sixth_point(p1, p2, p3, p4, p5) -> Fraction:
    """The x for which the chords (p1,p2), (p3,p4), (p5,x) of the conic
    t -> (1, t, t^2) meet in one point.  The chord through the images of a
    and b has line coordinates (ab, -(a+b), 1); the determinant of the three
    lines is affine in x, so two evaluations fix its root."""

    def line(a, b):
        return (a * b, -(a + b), 1)

    r1, r2 = line(p1, p2), line(p3, p4)

    def det(x):
        r3 = line(p5, x)
        return (
            r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
            - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
            + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0])
        )

    d0, d1 = Fraction(det(Fraction(0))), Fraction(det(Fraction(1)))
    if d1 == d0:
        raise ValueError("degenerate chord configuration")
    return -d0 / (d1 - d0)


def chords(name: str, char: int, truncation: int) -> Callable[[int], list[Job]]:
    """The concurrent-chords divisor of the paper.  Its input is fixed: the
    seed changes nothing, so the whole workload is its own anchor."""

    def build(seed: int) -> list[Job]:
        points = CHORD_BASE + (concurrent_sixth_point(*CHORD_BASE),)
        D = canring.QDivisor.of(points, CHORD_ALPHAS)
        field = canring.FieldSpec(char)

        def check(output, expected: dict) -> Optional[str]:
            gens, rels, groebner = output
            want = expected["chords"]
            if _degrees(gens) != want["generator_degrees"]:
                return f"generator degrees {_degrees(gens)}"
            if _degrees(rels) != want["relation_degrees"]:
                return f"relation degrees {_degrees(rels)}"
            if not all(relation_evaluates_to_zero(D, field, gens, r) for r in rels):
                return "a relation does not vanish on the generator sections"
            if [list(e) for e in groebner.leading_terms] != want["leading_terms"]:
                return f"leading terms {groebner.leading_terms}"
            got = digest(_engine_reports(D, field, gens, rels, groebner))
            if got != expected["digests"][name]:
                return f"report digest {got}"
            return None

        return [Job(f"{name}@{truncation}", lambda: _presentation(D, field, truncation), check)]

    return build


# ---------------------------------------------------------------------------
# scan-n5: one stability scan, generators only

SCAN_ALPHAS = tuple(Fraction(a) for a in ("-2/3", "1/2", "3/5", "1/4", "-1/6"))
SCAN_CHARS = (0, 2, 3, 5, 7)
SCAN_ANCHOR = ("inf", 0, 1, -1, 2)
# 16 seeded configurations in five characteristics.  The generator window
# 45 lies above every generator (the largest has degree 9) and above the
# xgen threshold 16; it keeps a char-0 configuration near 0.3 s, so a pass
# averages the point-dependent cost of many configurations.
SCAN_CONFIGS = 16
SCAN_WINDOW = 45


def scan_n5(seed: int) -> list[Job]:
    configs = [(tuple(canring.PointP1.of(p) for p in SCAN_ANCHOR), 0)]
    configs += canring.generic_configs(5, SCAN_CONFIGS, SCAN_CHARS, seed)

    def check(report, expected: dict) -> Optional[str]:
        evaluated = [r for r in report["runs"] if not r["skipped"]]
        multisets = {tuple(sorted(g["degree"] for g in r["generators"])) for r in evaluated}
        if not report["stable"]:
            return "scan reports an unstable configuration"
        if not evaluated:
            return "no configuration was evaluated"
        if multisets != {tuple(expected["scan"]["generator_degrees"])}:
            return f"generator multisets {sorted(multisets)}"
        anchor = {
            "command": "scan",
            "alphas": report["alphas"],
            "runs": report["runs"][:1],
            "xgen_threshold": report["xgen_threshold"],
        }
        got = digest(anchor)
        if got != expected["digests"]["scan-n5"]:
            return f"anchor digest {got}"
        return None

    run = lambda: canring.stability_scan(SCAN_ALPHAS, configs, up_to=SCAN_WINDOW)
    return [Job(f"scan-n5@{len(configs)}", run, check)]


# ---------------------------------------------------------------------------
# small-batch: many small divisors against the oracle, plus two-point jobs

EXAMPLE_235 = (("inf", 0, 1), tuple(Fraction(a) for a in ("-1/2", "1/3", "1/5")))
# The divisors are sorted into cost classes by an estimate of the oracle's
# work (see _oracle_work); the class bounds are the upper ends of all but
# the last, open class.  Each field gets DIVISORS_PER_FIELD divisors, split
# over the classes in proportion to the exact probability that a criterion
# 09 draw lands in the class, so a seed changes which divisors run, not how
# heavy the batch is.
BATCH_CLASSES = (50, 200, 1000, 2000, 3000)
DIVISORS_PER_FIELD = 211
TWO_POINT_JOBS = 200


def _window(D) -> int:
    """The degree window of the oracle comparison in the acceptance suite."""
    if D.degree < 0:
        return 8
    if D.degree == 0:
        return canring.denominator_data(D).ell + 2
    return min(canring.degree_bounds(D)[1], 15)


def _oracle_work(D, window: int) -> Optional[int]:
    """Products the oracle forms in each degree times the squared dimension
    its ranks run over; None when a graded piece is above the oracle's
    size guard (dimension 40)."""
    dims = [canring.graded_dim(D, d) for d in range(window + 1)]
    if max(dims) > 40:
        return None
    return sum(
        sum(dims[c] * dims[d - c] for c in range(1, d // 2 + 1)) * dims[d] ** 2
        for d in range(1, window)
    )


def _draw_alphas(rng: random.Random) -> tuple[Fraction, ...]:
    """Alphas drawn as in acceptance criterion 09: n <= 3 points 0..n-1,
    |numerator| <= 2, denominator <= 4."""
    n = rng.randint(1, 3)
    return tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(n))


def _criterion_09_space() -> dict[tuple, tuple[int, int, int, int]]:
    """Every alpha tuple a criterion 09 draw can keep (degree <= 1 and
    within the oracle's size guard), mapped to (cost class, oracle window,
    work estimate, weight).  Weights are integers proportional to the
    probability of the draw: 1/3 per n, 1/20 per (numerator, denominator)
    pair."""
    pairs = Counter(Fraction(a, b) for a in range(-2, 3) for b in range(1, 5))
    space = {}
    for n in (1, 2, 3):
        for alphas in itertools.product(sorted(pairs), repeat=n):
            D = canring.QDivisor.of(range(n), alphas)
            if D.degree > 1:
                continue
            window = _window(D)
            work = _oracle_work(D, window)
            if work is None:
                continue
            cls = bisect.bisect_right(BATCH_CLASSES, work)
            weight = 20 ** (3 - n) * math.prod(pairs[a] for a in alphas)
            space[alphas] = (cls, window, work, weight)
    return space


def _batch_divisors(rng: random.Random) -> list[tuple]:
    """(alphas, field index, window) of the batch.  The closed classes are
    filled with seeded draws as in criterion 09.  The open class holds the
    heavy tail, whose single items vary from 0.03 s to 9 s on one input, so
    seeded draws there would make the pass time a lottery: it holds a fixed
    set instead, the divisor at the middle of each of its equal-probability
    strata in order of estimated work, in both fields."""
    space = _criterion_09_space()
    mass = [0] * (len(BATCH_CLASSES) + 1)
    for cls, _, _, weight in space.values():
        mass[cls] += weight
    quotas = [round(DIVISORS_PER_FIELD * m / sum(mass)) for m in mass]

    out = []
    left = {(f, c): q for f in range(2) for c, q in enumerate(quotas[:-1])}
    while any(left.values()):
        alphas, f = _draw_alphas(rng), rng.randrange(2)
        if alphas in space and left.get((f, space[alphas][0])):
            left[f, space[alphas][0]] -= 1
            out.append((alphas, f, space[alphas][1]))

    heavy = sorted((work, alphas, weight) for alphas, (cls, _, work, weight) in space.items()
                   if cls == len(BATCH_CLASSES))
    strata, seen, k = quotas[-1], 0, 0
    for _, alphas, weight in heavy:
        seen += weight
        while k < strata and 2 * strata * seen >= (2 * k + 1) * mass[-1]:
            out += [(alphas, f, space[alphas][1]) for f in range(2)]
            k += 1
    return out


def _draw_two_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Two-point divisor as in acceptance criterion 02, denominators <= 40."""
    while True:
        q1, q2 = rng.randint(1, 40), rng.randint(1, 40)
        alpha = Fraction(rng.randint(-3 * q1, 3 * q1), q1)
        beta = Fraction(rng.randint(-3 * q2, 3 * q2), q2)
        if alpha + beta >= 0:
            return alpha, beta


def small_batch(seed: int) -> list[Job]:
    rng = random.Random(seed)
    fields = (canring.FieldSpec(0), canring.FieldSpec(BIG_PRIME))
    divisors = [
        (canring.QDivisor.of(range(len(alphas)), alphas), fields[f], window)
        for alphas, f, window in _batch_divisors(rng)
    ]
    pairs = [_draw_two_point(rng) for _ in range(TWO_POINT_JOBS)]
    example = canring.QDivisor.of(*EXAMPLE_235)
    example_fields = (canring.FieldSpec(0), canring.FieldSpec(7))

    def check_example(output, expected: dict) -> Optional[str]:
        want = expected["example_235"]
        reports = []
        for field, (gens, rels, groebner) in zip(example_fields, output):
            if _degrees(gens) != want["generator_degrees"]:
                return f"{field}: generator degrees {_degrees(gens)}"
            if _degrees(rels) != want["relation_degrees"]:
                return f"{field}: relation degrees {_degrees(rels)}"
            if not all(relation_evaluates_to_zero(example, field, gens, r) for r in rels):
                return f"{field}: a relation does not vanish"
            reports += _engine_reports(example, field, gens, rels, groebner)
        got = digest(reports)
        if got != expected["digests"]["small-batch"]:
            return f"report digest {got}"
        return None

    def divisor_job(D, field, window) -> Job:
        def run():
            oracle = canring.brute_force_oracle(D, field, window)
            gens = canring.minimal_generators(D, field, window)
            rels = canring.relation_ideal(D, field, gens, window)
            groebner = canring.groebner_leading_terms(D, field, gens, window)
            return gens, rels, groebner, oracle

        def check(output, expected: dict) -> Optional[str]:
            gens, rels, _, oracle = output
            engine = (_degrees(gens), _degrees(rels))
            if engine != tuple(oracle):
                return f"engine {engine} != oracle {oracle}"
            if not all(relation_evaluates_to_zero(D, field, gens, r) for r in rels):
                return "a relation does not vanish on the generator sections"
            return None

        return Job(f"{D}/{field}", run, check)

    def two_point_job(alpha, beta) -> Job:
        def run():
            pres = canring.two_point_presentation(alpha, beta)
            return pres, canring.verify_presentation(pres)

        def check(output, expected: dict) -> Optional[str]:
            return None if output[1] else "verify_presentation failed"

        return Job(f"twopoint({alpha},{beta})", run, check)

    run_example = lambda: [_presentation(example, f) for f in example_fields]
    jobs = [Job("example-235", run_example, check_example)]
    jobs += [divisor_job(*item) for item in divisors]
    jobs += [two_point_job(*pair) for pair in pairs]
    return jobs


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "chords-qq": chords("chords-qq", 0, 240),
    "chords-gfp": chords("chords-gfp", BIG_PRIME, 360),
    "scan-n5": scan_n5,
    "small-batch": small_batch,
}
