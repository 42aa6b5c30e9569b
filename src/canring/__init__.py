"""Exact presentations (generators, relations, Groebner leading terms) of
section rings of rational divisors on the projective line."""

from .divisor import (
    PointP1,
    QDivisor,
    degree_bounds,
    denominator_data,
    floor_divisor,
    graded_dim,
    parameter_certificate,
    semigroup_count_bound,
)
from .errors import (
    CanringError,
    GenerationError,
    OversizeError,
    PointCollisionError,
    TrivialRingError,
    UnsupportedDivisorError,
)
from .exactla import FieldSpec
from .conelattice import (
    ConeModel,
    GradedMonomial,
    build_cone_model,
    monomial_basis,
    monomial_spanning_set,
    semigroup_generators,
)
from .presentation import (
    GeneratorRecord,
    GroebnerReport,
    RelationPoly,
    brute_force_oracle,
    generic_configs,
    groebner_leading_terms,
    minimal_generators,
    relation_ideal,
    stability_scan,
    xgen_threshold,
)
from .ratapprox import (
    LatticeVec2,
    best_lower_approximations,
    best_upper_approximations,
    minimal_denominator_in_interval,
    minus_continued_fraction,
    minus_continued_fraction_value,
)
from .twopoint import (
    TwoPointPresentation,
    TwoPointRelation,
    two_point_presentation,
    verify_presentation,
)

__version__ = "0.1.0"
