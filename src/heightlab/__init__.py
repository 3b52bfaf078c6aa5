"""heightlab: exact Weil heights, Galois orbits modulo torsion, place
vectors, and field-norm projection operators in a fixed Galois number
field over Q."""

from .errors import (
    ConditionViolated,
    EvalError,
    FactorizationExhausted,
    FieldTooLarge,
    HeightlabError,
    IndexDivisor,
    InputError,
    MathRefusal,
    NotConjugate,
    NotGalois,
    ParseError,
    PrecisionExhausted,
    ReduciblePolynomial,
    SchemaError,
    WitnessFailure,
    ZeroElement,
)
from .heights import GElement, HeightValue, g_combine, g_equal, g_height, is_torsion, weil_height
from .numberfield import (
    Automorphism,
    FieldElement,
    Poly,
    Subfield,
    WorkingField,
    galois_condition,
    make_field,
    minimal_polynomial,
    roots_in_field,
    subfield,
)
from .orbits import (
    KdivResult,
    OrbitReport,
    degree_of_power,
    delta_K,
    in_kdiv,
    orbit_mod_torsion,
    vk_bounds,
    width_K,
)
from .placespace import (
    LocalFactorization,
    PlaceId,
    PlaceVector,
    f_vector,
    integral,
    l1_norm,
    local_factorization,
    permute_by_automorphism,
    places,
)
from .polynomials import factor_rational
from .projections import (
    DecompositionResult,
    ProjectionSpec,
    check_commutes,
    check_conjugation,
    composite_project,
    is_member,
    operator_norm_check,
    s_project,
    t_project,
)
from .scenario import Scenario, parse_scenario
from .corpus import bundled_corpus

__version__ = "0.1.0"
