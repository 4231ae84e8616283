"""Exact-arithmetic inference engine for coherent and Archimedean choice models.

Public surface: exact rational vectors and option spaces (:mod:`numeric`),
an exact LP oracle with certificates (:mod:`lp`), desirability cones
(:mod:`cone`), (super)linear functionals (:mod:`functional`), Archimedean
separation (:mod:`archimedean`), sets of desirable option sets and decision
rules (:mod:`choice`), horse-lottery ingestion (:mod:`lottery`), and a CLI
(:mod:`cli`).
"""

from types import ModuleType as _ModuleType

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
from .functional import LinearF, SuperlinF, is_positive, nml
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
    is_binary,
    maximal,
    reject,
)
from .lottery import DiffOption, HorseLottery, embed_pref, to_vector

# The API names only: importing a name from a submodule also binds the
# submodule itself here, and ``import *`` must not rebind a caller's ``lp``.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
