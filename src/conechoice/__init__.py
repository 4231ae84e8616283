"""Exact-arithmetic inference engine for coherent and Archimedean choice models.

Public surface: exact rational vectors and option spaces (:mod:`numeric`),
an exact LP oracle with certificates (:mod:`lp`), desirability cones
(:mod:`cone`), (super)linear functionals (:mod:`functional`), Archimedean
separation (:mod:`archimedean`), sets of desirable option sets and decision
rules (:mod:`choice`), horse-lottery ingestion (:mod:`lottery`), and a CLI
(:mod:`cli`).
"""

from .numeric import (
    Background,
    OptionSpace,
    Rational,
    Vector,
    format_rational,
    parse_rational,
    vec,
)
from .cone import (
    ConsistencyReport,
    DesirCone,
    LexCone,
    MixingResult,
    OpenDualCone,
    PosiCone,
    is_coherent,
    is_mixing,
    member,
    natural_extension,
    posi_member,
)
from .functional import (
    LinearF,
    SuperlinF,
    dominating_polytope,
    hahn_banach_witness,
    is_positive,
    nml,
    operator_norm,
    operator_norm_bound,
)
from .archimedean import (
    SeparationWitness,
    archimedean_closure_member,
    archimedean_consistent,
    is_essentially_archimedean,
    lambda_o,
    lambda_o_functional,
    separate,
)
from .choice import (
    AssessmentK,
    BinaryK,
    CredalK,
    KModel,
    OptionSet,
    choose,
    e_admissible,
    is_binary,
    km_check,
    maximal,
    reject,
)
from .lottery import DiffOption, HorseLottery, embed_pref, mixture_independence_check, to_vector

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
