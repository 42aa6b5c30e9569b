"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Everything is exact arithmetic, so comparisons are equality;
random sweeps are seeded and resample only on documented tractability
guards (instance-size caps), never on the outcome being checked.
"""

import math
import random
from fractions import Fraction

from canring.conelattice import build_cone_model, monomial_basis, semigroup_generators
from canring.divisor import (
    QDivisor,
    degree_bounds,
    denominator_data,
    graded_dim,
    padded,
    semigroup_count_bound,
)
from canring.errors import OversizeError
from canring.exactla import ExactMatrix, FieldSpec, rank
from canring.presentation import (
    brute_force_oracle,
    generic_configs,
    groebner_leading_terms,
    minimal_generators,
    minimal_relation_degrees,
    relation_evaluates_to_zero,
    relation_ideal,
    stability_scan,
)
from canring.ratapprox import (
    best_lower_approximations,
    cross,
    minus_continued_fraction,
    minus_continued_fraction_value,
)
from canring.twopoint import two_point_presentation, verify_presentation

QQ = FieldSpec(0)
GFBIG = FieldSpec(10007)  # wide prime field for bulk sweeps


def F(s):
    return Fraction(s)


def check(criterion: int, ok: bool, msg: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} {msg}")
    assert ok, f"criterion {criterion}: {msg}"


def gen_degs(gens):
    return sorted(g.degree for g in gens)


def _monomial_count(weights, top):
    dp = [0] * (top + 1)
    dp[0] = 1
    for w in weights:
        for d in range(w, top + 1):
            dp[d] += dp[d - w]
    return sum(dp[1:])


def test_criterion_01_one_point_13_over_5():
    pres = two_point_presentation(F("13/5"), 0)
    gens_ok = [(v.d, v.c) for v in pres.generators] == [
        (1, 0), (1, 1), (1, 2), (2, 5), (5, 13),
    ]
    count_ok = len(pres.relations) == math.comb(4, 2) == 6
    gaps = sorted((r for r in pres.relations if r.j == r.i + 2), key=lambda r: r.i)
    exps = [r.a for r in gaps]
    cf = minus_continued_fraction(F("13/5"))
    cf_ok = (
        exps == [2, 3, 3]
        and cf[1:] == exps
        and minus_continued_fraction_value(cf) == F("13/5")
    )
    check(
        1,
        gens_ok and count_ok and cf_ok,
        f"generators {[(v.d, v.c) for v in pres.generators]}, "
        f"{len(pres.relations)} relations, gap exponents {exps}",
    )


def _sample_two_point(rng):
    """Random two-point divisor with denominators <= 40; instances are
    re-drawn when the presentation would be too large for the engine's
    monomial sweep (size guards only, independent of the checked outcome)."""
    while True:
        q1, q2 = rng.randint(1, 40), rng.randint(1, 40)
        alpha = Fraction(rng.randint(-3 * q1, 3 * q1), q1)
        beta = Fraction(rng.randint(-3 * q2, 3 * q2), q2)
        if alpha + beta < 0:
            continue
        pres = two_point_presentation(alpha, beta)
        degs = [v.d for v in pres.generators]
        if len(degs) > 12 or max(degs) > 30:
            continue
        if _monomial_count(degs, 2 * max(degs)) > 40000:
            continue
        return alpha, beta, pres


def test_criterion_02_two_point_example_and_random_agreement():
    pres = two_point_presentation(F("13/5"), F("-1/4"))
    dots_ok = [(v.d, v.c) for v in pres.generators] == [
        (4, 1), (3, 1), (2, 1), (1, 1), (1, 2), (2, 5), (5, 13),
    ]
    balance_ok = verify_presentation(pres)

    D = QDivisor.of(["inf", 0], [F("13/5"), F("-1/4")])
    gens = minimal_generators(D, QQ)
    window = 2 * max(v.d for v in pres.generators)
    engine_rels = minimal_relation_degrees(D, QQ, gens, up_to=window)
    closed_rels = sorted(
        pres.generator(r.i).d + pres.generator(r.j).d for r in pres.relations
    )
    headline_ok = gen_degs(gens) == sorted(v.d for v in pres.generators)
    headline_ok = headline_ok and engine_rels == closed_rels

    rng = random.Random(20260809)
    mismatches = []
    for _ in range(30):
        alpha, beta, p = _sample_two_point(rng)
        Dr = QDivisor.of(["inf", 0], [alpha, beta])
        g = minimal_generators(Dr, GFBIG)
        if gen_degs(g) != sorted(v.d for v in p.generators):
            mismatches.append((alpha, beta, "generators"))
            continue
        w = 2 * max(v.d for v in p.generators)
        got = minimal_relation_degrees(Dr, GFBIG, g, up_to=w)
        want = sorted(p.generator(r.i).d + p.generator(r.j).d for r in p.relations)
        if got != want:
            mismatches.append((alpha, beta, "relations"))
    check(
        2,
        dots_ok and balance_ok and headline_ok and not mismatches,
        f"7 generators match the chain, balance verified, engine agrees on "
        f"(13/5,-1/4) and 30 random divisors (mismatches: {mismatches})",
    )


def test_criterion_03_235_example_both_characteristics():
    D = QDivisor.of(["inf", 0, 1], [F("-1/2"), F("1/3"), F("1/5")])
    results = {}
    for char in (0, 7):
        field = FieldSpec(char)
        gens = minimal_generators(D, field)
        rels = relation_ideal(D, field, gens)
        ok = (
            gen_degs(gens) == [6, 10, 15]
            and [r.degree for r in rels] == [30]
            and set(rels[0].support) == {(5, 0, 0), (0, 3, 0), (0, 0, 2)}
            and all(c != 0 for _, c in rels[0].terms)
            and relation_evaluates_to_zero(D, field, gens, rels[0])
        )
        results[char] = ok
    check(
        3,
        all(results.values()),
        f"degrees {{6,10,15}}, one degree-30 relation on x^5,y^3,z^2 with all "
        f"coefficients nonzero, chars 0 and 7 (per-char: {results})",
    )


def _sample_bounded_divisor(rng):
    """Random divisor, n <= 4, denominators <= 8, positive degree; re-drawn
    on instance-size guards (lcm, lattice index, enumeration and monomial
    counts) so the full certified windows stay tractable."""
    while True:
        n = rng.randint(1, 4)
        alphas = [Fraction(rng.randint(-3, 3), rng.randint(1, 8)) for _ in range(n)]
        D = QDivisor.of(range(n), alphas)
        deg = D.degree
        if not 0 < deg <= Fraction(1, 2):
            continue
        P = padded(D)
        data = denominator_data(P)
        if data.ell > 60:
            continue
        det = math.prod(data.ell_i) * deg ** (P.n - 1)
        if det > 2000:
            continue
        widths = math.prod(math.ceil(deg * l) + 2 for l in data.ell_i[:-1])
        if sum(data.ell_i) * widths > 1_500_000:
            continue
        return D


def test_criterion_04_bounds_audit_100_random_divisors():
    rng = random.Random(41)
    audited = 0
    failures = []
    while audited < 100:
        D = _sample_bounded_divisor(rng)
        gen_bound, rel_bound = degree_bounds(D)
        gens = minimal_generators(D, GFBIG)
        weights = [g.degree for g in gens]
        if _monomial_count(weights, rel_bound) > 15000:
            continue  # size guard; divisor is re-drawn
        rels = minimal_relation_degrees(D, GFBIG, gens, up_to=rel_bound)
        model = build_cone_model(D)
        data = denominator_data(model.divisor)
        det = math.prod(data.ell_i) * D.degree ** (model.divisor.n - 1)
        ok = (
            all(g.degree < gen_bound for g in gens)
            and all(r < rel_bound for r in rels)
            and len(semigroup_generators(model)) <= semigroup_count_bound(D)
            and len(model.cube_points) + 1 == det
        )
        if not ok:
            failures.append([str(a) for a in D.alphas])
        audited += 1
    check(
        4,
        not failures,
        f"100 random divisors: generator/relation degrees below the bounds, "
        f"semigroup count bounded, cube count + 1 = lattice index "
        f"(failures: {failures})",
    )


def test_criterion_05_characteristic_two_example():
    # 1, t^2, (t-1)^2 as rows over the monomial basis 1, t, t^2
    rows = [[1, 0, 0], [0, 0, 1], [1, -2, 1]]
    rank2 = rank(ExactMatrix.from_rational_rows(FieldSpec(2), rows))
    rank0 = rank(ExactMatrix.from_rational_rows(QQ, rows))
    configs = generic_configs(3, 10, [0, 2, 3, 5], seed=505)
    report = stability_scan([2, 0, 0], configs)
    multisets = {
        tuple(sorted(g["degree"] for g in run["generators"]))
        for run in report["runs"]
        if not run["skipped"]
    }
    check(
        5,
        rank2 == 2 and rank0 == 3 and report["stable"] and multisets == {(1, 1, 1)},
        f"rank {{1,t^2,(t-1)^2}} = {rank2} in char 2 and {rank0} in char 0; "
        f"alphas (2,0,0) stable across 10 configs x chars {{0,2,3,5}}",
    )


def test_criterion_06_harmonic_example():
    def triple_rank(lam):
        rows = [[1, 0, 0], [0, 0, 1], [lam, -(1 + lam), 1]]  # 1, t^2, (t-1)(t-lam)
        return rank(ExactMatrix.from_rational_rows(QQ, rows))

    degenerate_only_at_minus_one = triple_rank(-1) == 2 and all(
        triple_rank(lam) == 3 for lam in (2, 5, -3, Fraction(1, 2))
    )
    harmonic = ((None, 0, 1, -1), 0)
    configs = [harmonic] + generic_configs(4, 6, [0, 3], seed=606)
    report = stability_scan([2, 0, 0, 0], configs)
    multisets = {
        tuple(sorted(g["degree"] for g in run["generators"]))
        for run in report["runs"]
        if not run["skipped"]
    }
    check(
        6,
        degenerate_only_at_minus_one and report["stable"] and multisets == {(1, 1, 1)},
        "naive triple degenerates exactly at lambda = -1; stable degrees "
        "(1,1,1) unaffected at the harmonic configuration",
    )


def _concurrent_sixth_point(p1, p2, p3, p4, p5):
    """Solve the chord-concurrency determinant for the last point: the
    chords join the Veronese images of the point pairs (p1,p2), (p3,p4),
    (p5, x); each chord has line coordinates (a*b, -(a+b), 1)."""

    def line(a, b):
        return (a * b, -(a + b), 1)

    r1, r2 = line(p1, p2), line(p3, p4)

    def det_with(x):
        r3 = line(p5, x)
        return (
            r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
            - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
            + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0])
        )

    # determinant is affine in x: solve det = 0 exactly
    d0, d1 = det_with(Fraction(0)), det_with(Fraction(1))
    slope = d1 - d0
    assert slope != 0, "degenerate chord configuration"
    return -Fraction(d0) / slope, det_with


def test_criterion_07_chords_example():
    alphas = [F("-1/2"), F("-1/2"), F("1/3"), F("1/3"), F("1/5"), F("1/5")]
    base = [Fraction(v) for v in (0, 1, 2, 3, 4)]
    x, det_with = _concurrent_sixth_point(*base)
    assert x not in base
    special = QDivisor.of(base + [x], alphas)
    gens_s = minimal_generators(special, QQ)
    rels_s = minimal_relation_degrees(special, QQ, gens_s, up_to=70)
    special_ok = gen_degs(gens_s) == [6, 10, 15, 30] and rels_s == [30, 60]

    # the same configuration swept to the full certified relation bound
    gens_sp = minimal_generators(special, GFBIG)
    full = minimal_relation_degrees(
        special, GFBIG, gens_sp, up_to=degree_bounds(special)[1]
    )
    full_ok = full == [30, 60]

    generic_ok = True
    rng = random.Random(707)
    done = 0
    while done < 3:
        pts = []
        while len(pts) < 6:
            cand = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
            if cand not in pts:
                pts.append(cand)
        if det_with is not None:
            # build an honest generic check: recompute the determinant for
            # this configuration's own chords and skip accidental hits
            def line(a, b):
                return (a * b, -(a + b), 1)

            r1, r2, r3 = line(pts[0], pts[1]), line(pts[2], pts[3]), line(pts[4], pts[5])
            det = (
                r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
                - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
                + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0])
            )
            if det == 0:
                continue
        Dg = QDivisor.of(pts, alphas)
        gg = minimal_generators(Dg, QQ)
        rr = minimal_relation_degrees(Dg, QQ, gg, up_to=70)
        if gen_degs(gg) != [6, 10, 15] or rr != [60]:
            generic_ok = False
            break
        done += 1

    check(
        7,
        special_ok and full_ok and generic_ok,
        f"concurrent configuration (sixth point {x}): degrees "
        f"{gen_degs(gens_s)}, relations {rels_s} (full bound: {full}); "
        f"generic configurations give {{6,10,15}} and {{60}}",
    )


def _sample_alphas(rng, n, max_den):
    while True:
        alphas = [
            Fraction(rng.randint(-3, 3), rng.randint(1, max_den)) for _ in range(n)
        ]
        deg = sum(alphas)
        if 0 < deg <= Fraction(1, 2):
            return alphas


def test_criterion_08_stability_sweeps():
    rng = random.Random(88)
    gen_failures = []
    for trial in range(25):
        alphas = _sample_alphas(rng, 5, 6)
        configs = generic_configs(5, 20, [0, 2, 3, 5, 7], seed=1000 + trial)
        report = stability_scan(alphas, configs)
        if not report["stable"]:
            gen_failures.append([str(a) for a in alphas])

    gro_failures = []
    for trial in range(25):
        alphas = _sample_alphas(rng, 4, 6)
        ref = QDivisor.of(range(4), alphas)
        ref_gens = minimal_generators(ref, QQ)
        trunc = 2 * max(g.degree for g in ref_gens)
        configs = generic_configs(4, 20, [0, 2, 3, 5, 7], seed=2000 + trial)
        report = stability_scan(
            alphas, configs, with_groebner=True, truncation=trunc
        )
        if not report["stable"]:
            gro_failures.append([str(a) for a in alphas])

    check(
        8,
        not gen_failures and not gro_failures,
        f"25 n=5 alpha-vectors: generator multisets agree over 20 configs x "
        f"chars {{0,2,3,5,7}} (failures: {gen_failures}); 25 n=4 vectors: "
        f"Groebner leading-term sets agree (failures: {gro_failures})",
    )


def test_criterion_09_property_suites():
    rng = random.Random(909)

    unimodular_ok = True
    for _ in range(1000):
        alpha = Fraction(rng.randint(-400, 400), rng.randint(1, 200))
        vecs = best_lower_approximations(alpha, math.floor(alpha)).vectors()
        if any(cross(u, v) != 1 for u, v in zip(vecs, vecs[1:])):
            unimodular_ok = False
            break

    basis_ok = True
    for _ in range(500):
        n = rng.randint(1, 5)
        alphas = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n)]
        D = QDivisor.of(range(n), alphas)
        d = rng.randint(0, 40)
        if len(monomial_basis(D, d)) != graded_dim(D, d):
            basis_ok = False
            break

    # Hilbert-series consistency is asserted inside every engine relation
    # run; exercise it explicitly on the worked examples.
    hilbert_ok = True
    for alphas, pts in [
        ([F("-1/2"), F("1/3"), F("1/5")], ["inf", 0, 1]),
        ([F("13/5"), F("-1/4")], ["inf", 0]),
    ]:
        D = QDivisor.of(pts, alphas)
        gens = minimal_generators(D, QQ)
        relation_ideal(D, QQ, gens)  # raises GenerationError on failure

    oracle_ok = True
    oracle_failures = []
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        alphas = [Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(n)]
        D = QDivisor.of(range(n), alphas)
        if D.degree > 1:
            continue  # size guard: the quadratic-cost oracle stays small
        if D.degree < 0:
            window = 8
        elif D.degree == 0:
            window = denominator_data(D).ell + 2
        else:
            window = min(degree_bounds(D)[1], 15)
        field = GFBIG if done % 2 else QQ
        try:
            oracle = brute_force_oracle(D, field, window)
        except OversizeError:
            continue
        gens = minimal_generators(D, field, up_to=window)
        engine = (
            gen_degs(gens),
            minimal_relation_degrees(D, field, gens, up_to=window),
        )
        if engine != oracle:
            oracle_ok = False
            oracle_failures.append([str(a) for a in D.alphas])
        done += 1

    check(
        9,
        unimodular_ok and basis_ok and hilbert_ok and oracle_ok,
        f"unimodularity (1000 chains), basis cardinality (500 draws), "
        f"Hilbert consistency, oracle equivalence on 50 instances "
        f"(oracle failures: {oracle_failures})",
    )


def test_criterion_10_nonminimal_groebner_witness():
    D = QDivisor.of(["inf", 0, 1], [F("-1/3"), F("1/2"), F("1/2")])
    gens = minimal_generators(D, QQ)
    rels = relation_ideal(D, QQ, gens)
    report = groebner_leading_terms(D, QQ, gens)
    check(
        10,
        len(report.leading_terms) > len(rels),
        f"{len(report.leading_terms)} Groebner leading terms > "
        f"{len(rels)} minimal relations for (-1/3, 1/2, 1/2)",
    )
