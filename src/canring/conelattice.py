"""Lattice points of the section cone: spanning monomials, graded bases,
ray generators, and the fundamental-cube generators of the semigroup.

Exponent vectors (d, c_1, ..., c_n) with sum(c_i) = 0 and c_i >= -d*alpha_i
model the graded monomials u^d prod t_i^{c_i}.  One-point divisors are
ghost-padded to n = 2 before any of this applies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .divisor import QDivisor, denominator_data, floor_divisor, padded
from .errors import CanringError, UnsupportedDivisorError


@dataclass(frozen=True)
class GradedMonomial:
    """Exponent vector of u^d t_1^{c_1} ... t_n^{c_n} with sum(c) = 0."""

    d: int
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.d < 0:
            raise CanringError("monomial degree must be nonnegative")
        if sum(self.c) != 0:
            raise CanringError(f"exponents {self.c} do not sum to zero")

    def validate(self, D: QDivisor) -> "GradedMonomial":
        """Check the cone inequalities c_i >= -d*alpha_i against a divisor."""
        P = padded(D)
        if len(self.c) != P.n:
            raise CanringError(
                f"monomial has {len(self.c)} exponents, divisor has {P.n} points"
            )
        for ci, ai in zip(self.c, P.alphas):
            if ci < -self.d * ai:
                raise CanringError(
                    f"exponent {ci} violates c >= {-self.d * ai} for alpha={ai}"
                )
        return self

    def to_json(self) -> dict:
        return {"d": self.d, "c": list(self.c)}

    @staticmethod
    def from_json(obj: dict) -> "GradedMonomial":
        return GradedMonomial(int(obj["d"]), tuple(int(x) for x in obj["c"]))


@dataclass(frozen=True)
class ConeModel:
    """Ray generators and fundamental-cube points of the section cone.

    ``divisor`` is the ghost-padded divisor the exponent vectors refer to.
    ``epsilon`` is the unique vector where every cone inequality of the
    shifted cone (exponent sums equal to -1) is tight.
    """

    divisor: QDivisor
    rays: tuple[GradedMonomial, ...]
    cube_points: tuple[GradedMonomial, ...]
    epsilon: tuple[Fraction, ...]

    @property
    def lattice_index(self) -> int:
        return len(self.cube_points) + 1


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def monomial_spanning_set(D: QDivisor, d: int) -> list[GradedMonomial]:
    """All cone lattice points in degree d; these monomials span the graded
    piece."""
    P = padded(D)
    b = floor_divisor(P, d)
    r = sum(b)
    if r < 0:
        return []
    out = []
    for extra in _compositions(r, P.n):
        out.append(GradedMonomial(d, tuple(e - bi for e, bi in zip(extra, b))))
    return out


def monomial_basis(D: QDivisor, d: int) -> list[GradedMonomial]:
    """The spanning monomials pinned at the floor for the third point on:
    a basis of the graded piece, of size graded_dim(D, d)."""
    P = padded(D)
    b = floor_divisor(P, d)
    r = sum(b)
    if r < 0:
        return []
    pinned = tuple(-bi for bi in b[2:])
    out = []
    for c1 in range(-b[0], r - b[0] + 1):
        c2 = -c1 - sum(pinned)
        out.append(GradedMonomial(d, (c1, c2) + pinned))
    return out


def build_cone_model(D: QDivisor) -> ConeModel:
    """Rays plus all nonzero lattice points of the fundamental cube.

    The cube is enumerated degree by degree (every cube point has degree
    below sum_i ell_i) over the integer boxes cut out by the barycentric
    inequalities 0 <= c_i + d*alpha_i < deg(D) * ell_i.
    """
    if D.degree <= 0:
        raise UnsupportedDivisorError(
            f"cone model needs positive degree, got {D.degree}"
        )
    P = padded(D)
    data = denominator_data(P)
    deg = data.deg_D
    n = P.n

    rays = []
    for i in range(n):
        li = data.ell_i[i]
        c = [0] * n
        for j in range(n):
            if j == i:
                continue
            cj = -P.alphas[j] * li
            if cj.denominator != 1:
                raise AssertionError("ray exponent not integral")
            c[j] = int(cj)
        c[i] = -sum(c)
        rays.append(GradedMonomial(li, tuple(c)).validate(P))

    cube = []
    for d in range(1, sum(data.ell_i)):
        bounds = []
        for i in range(n):
            lo = math.ceil(-d * P.alphas[i])
            hi = math.ceil(-d * P.alphas[i] + deg * data.ell_i[i]) - 1
            if hi < lo:
                bounds = None
                break
            bounds.append((lo, hi))
        if bounds is None:
            continue
        for head in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds[:-1])):
            last = -sum(head)
            if bounds[-1][0] <= last <= bounds[-1][1]:
                cube.append(GradedMonomial(d, head + (last,)))

    epsilon = (Fraction(1) / deg,) + tuple(-a / deg for a in P.alphas)

    expected = math.prod(data.ell_i) * deg ** (n - 1)
    if expected.denominator != 1 or len(cube) + 1 != expected:
        raise AssertionError(
            f"cube enumeration found {len(cube)} points, lattice index is {expected}"
        )
    return ConeModel(P, tuple(rays), tuple(cube), epsilon)


def semigroup_generators(model: ConeModel) -> list[GradedMonomial]:
    """Rays plus cube points: a generating set of the degree-graded semigroup
    of cone lattice points (not necessarily minimal)."""
    gens = list(model.rays) + list(model.cube_points)
    gens.sort(key=lambda m: (m.d, m.c))
    return gens


def barycentric_coordinates(model: ConeModel, mono: GradedMonomial) -> tuple[Fraction, ...]:
    """Coordinates a_i with mono = sum_i a_i * ray_i, computed from the
    tight linear functionals (c_i + d*alpha_i) / (deg * ell_i)."""
    P = model.divisor
    deg = P.degree
    data = denominator_data(P)
    return tuple(
        (ci + mono.d * ai) / (deg * li)
        for ci, ai, li in zip(mono.c, P.alphas, data.ell_i)
    )


def decompose(model: ConeModel, mono: GradedMonomial) -> tuple[Optional[GradedMonomial], tuple[int, ...]]:
    """Write a cone lattice point as (cube point or None) + sum a_i * ray_i
    with integer a_i >= 0."""
    coords = barycentric_coordinates(model, mono)
    floors = tuple(math.floor(a) for a in coords)
    if any(f < 0 for f in floors):
        raise CanringError(f"{mono} is not in the cone")
    rest_d = mono.d - sum(f * ray.d for f, ray in zip(floors, model.rays))
    rest_c = list(mono.c)
    for f, ray in zip(floors, model.rays):
        for i, ci in enumerate(ray.c):
            rest_c[i] -= f * ci
    if rest_d == 0 and not any(rest_c):
        return None, floors
    rest = GradedMonomial(rest_d, tuple(rest_c))
    if rest not in model.cube_points:
        raise AssertionError(f"residual {rest} of {mono} is not a cube point")
    return rest, floors


def monomial_str(mono: GradedMonomial) -> str:
    parts = [f"u^{mono.d}"] if mono.d != 1 else ["u"]
    for i, ci in enumerate(mono.c, start=1):
        if ci == 1:
            parts.append(f"t{i}")
        elif ci:
            parts.append(f"t{i}^{ci}")
    return "*".join(parts) if mono.d else ("1" if not any(mono.c) else "*".join(parts[1:]))
