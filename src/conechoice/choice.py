"""Sets of desirable option sets, choice functions, and decision rules.

An assessment-based model answers queries about the *coherent closure* of its
assessment, via the selection reduction: a finite option set B lies in the
closure iff for every way of picking one option per assessment set, the picked
options' natural extension is inconsistent or already meets B.  (Any coherent
cone compatible with the assessment contains some selection's extension, and
each consistent selection's extension is itself such a cone, so the finitely
many selection extensions are exactly the minimal witnesses.)

Selection enumeration is exponential in the number of assessment sets; beyond
``SELECTION_CAP`` (10**6) selections it raises ``ValueError``.

Each selection's natural extension is kept on its model object as one
``PosiCone``, built on first need with no solve.  The cone keeps what it
learns (``cone._Cone.kept``): its consistency, solved through
``natural_extension`` only when a query needs it, and its separating
functional.  So ``member``, ``consistent``, ``is_binary`` and ``reject``
solve each selection's consistency at most once per model object.  What a
query can decide before any LP it decides there: a selection that picks an
option of B has an extension meeting B (the option is a generator,
coefficient 1), and a background-positive option is a member of every
extension (``cone.member``), so ``member`` passes every selection for it
without solving the selection's consistency.  A selection known to be
inconsistent is skipped by the Archimedean queries: no functional is
strictly positive on a set holding 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Iterator, Optional, Sequence, Union

from . import archimedean as arch
from . import lp
from .cone import (
    DesirCone,
    PosiCone,
    member as cone_member,
    natural_extension,
    option_separation,
    posi_member,
    separates,
)
from .functional import LinearF, SuperlinF, is_positive, nml
from .numeric import OptionSpace, Vector

SELECTION_CAP = 10**6


@dataclass(frozen=True)
class OptionSet:
    """A finite set of options, deduplicated and stored in a fixed order.

    Empty sets are representable (they arise as rejection sets); everywhere an
    option set enters the system as an assessment or a menu, nonemptiness is
    enforced by the caller.
    """

    options: tuple[Vector, ...]

    def __post_init__(self) -> None:
        options = sorted(dict.fromkeys(self.options), key=lambda v: v.entries)
        object.__setattr__(self, "options", tuple(options))

    def __iter__(self) -> Iterator[Vector]:
        return iter(self.options)

    def __len__(self) -> int:
        return len(self.options)

    def __contains__(self, v: Vector) -> bool:
        return v in self.options

    def without_zero(self) -> tuple[Vector, ...]:
        return tuple(v for v in self.options if not v.is_zero())


def option_set(*options: Vector) -> OptionSet:
    return OptionSet(tuple(options))


@dataclass(frozen=True)
class AssessmentK:
    """The coherent closure of finitely many "some option here is desirable" statements."""

    assessment: tuple[OptionSet, ...]
    space: OptionSpace

    def __post_init__(self) -> None:
        for a in self.assessment:
            for v in a:
                if v.dim != self.space.dim:
                    raise ValueError("assessment option has wrong dimension")

    @cached_property
    def _extensions(self) -> list[PosiCone]:
        """The selections' extension cones built so far, in ``selections``
        order; ``_extensions_of`` extends it.  Kept, since the model is frozen."""
        return []


def _extensions_of(model: AssessmentK) -> Iterator[PosiCone]:
    """The extension cone of each selection, in ``selections`` order, each
    built on first need and then kept on the model."""
    kept = model._extensions
    for i, selection in enumerate(selections(model)):
        if i == len(kept):
            kept.append(PosiCone(selection, model.space))
        yield kept[i]


def _consistency(extension: PosiCone) -> bool:
    """Does a selection's extension exclude 0?  Solved through
    ``natural_extension``, and kept on the cone by its callers."""
    _, report = natural_extension(list(extension.generators), extension.space)
    return report.consistent


@dataclass(frozen=True)
class CredalK:
    """The intersection of the models K_Lambda over a finite credal set.

    Functionals are normalized to value 1 at u_o on ingestion and must be
    background-positive.
    """

    functionals: tuple[LinearF, ...]
    space: OptionSpace

    def __post_init__(self) -> None:
        if not self.functionals:
            raise ValueError("a credal set needs at least one functional")
        normalized = []
        for f in self.functionals:
            if f.dim != self.space.dim:
                raise ValueError("credal functional has wrong dimension")
            if not is_positive(f, self.space):
                raise ValueError("credal functionals must be background-positive")
            normalized.append(nml(f, self.space.u_o))
        object.__setattr__(self, "functionals", tuple(normalized))


@dataclass(frozen=True)
class BinaryK:
    """The binary model K_D = {A : A meets D} of a set of desirable options."""

    cone: DesirCone

    @property
    def space(self) -> OptionSpace:
        return self.cone.space


KModel = Union[AssessmentK, CredalK, BinaryK]


def selections(model: AssessmentK) -> Iterator[tuple[Vector, ...]]:
    """All ways of picking one (nonzero) option from each assessment set."""
    pruned = [a.without_zero() for a in model.assessment]
    count = 1
    for choices in pruned:
        count *= len(choices)
        if count > SELECTION_CAP:
            raise ValueError(f"selection enumeration exceeds the cap of {SELECTION_CAP}")
    return product(*pruned)


def member(model: KModel, b: OptionSet) -> bool:
    """Is B in the model's semantic set (for AssessmentK: in the closure)?

    For an AssessmentK, a selection refutes B when its extension is
    consistent and meets no option of B.  A selection that picks an option of
    B meets it with no LP, and so does every selection when an option of B is
    background-positive; otherwise its kept consistency is read (solved on
    first need), then ``cone.member`` decides each option.
    """
    options = b.without_zero()
    if not options:
        return False
    if isinstance(model, CredalK):
        return all(any(f.sign_at(u) > 0 for u in options) for f in model.functionals)
    if isinstance(model, BinaryK):
        return any(cone_member(model.cone, u) for u in options)
    # A background-positive option is a member of every extension.
    positive = any(model.space.background_strictly_positive(u) for u in options)
    for cone in _extensions_of(model):
        if positive or any(u in cone.generators for u in options):
            continue
        if cone.kept("consistent", _consistency) and not any(
            cone_member(cone, u) for u in options
        ):
            return False
    return True


def consistent(model: AssessmentK) -> bool:
    """Does some selection have a consistent natural extension?"""
    return any(cone.kept("consistent", _consistency) for cone in _extensions_of(model))


def _archimedean_candidates(model: AssessmentK) -> Iterator[PosiCone]:
    """Each selection's kept cone, skipping a selection known to be
    inconsistent: no functional is strictly positive on a set holding 0.
    No consistency is solved here."""
    for cone in _extensions_of(model):
        if cone.kept("consistent") is not False:
            yield cone


def archimedean_consistency_witness(model: AssessmentK) -> Optional[LinearF]:
    """A background-positive functional strictly positive on some selection."""
    for cone in _archimedean_candidates(model):
        witness = arch.archimedean_consistency_witness(cone)
        if witness is not None:
            return witness
    return None


def archimedean_consistent(model: AssessmentK) -> bool:
    return archimedean_consistency_witness(model) is not None


def archimedean_member_evidence(model: AssessmentK, b: OptionSet) -> Optional[SuperlinF]:
    """None when B is in the Archimedean closure; otherwise an excluding
    min-envelope, assembled from one per-option linear witness each strictly
    positive on a common selection, and re-verified before being returned.

    Each per-option witness comes from ``cone.option_separation`` on the
    selection's kept cone, which solves for the option only what the cone
    has not already learnt.

    Soundness: the envelope is background-positive, strictly positive on the
    picked option of every assessment set (hence the model lies inside its
    K_envelope), and nonpositive on B.  Completeness: any excluding superlinear
    witness is positive somewhere on each assessment set, which picks the
    selection, and its dominating linear functionals supply the per-option
    witnesses.
    """
    witness = archimedean_consistency_witness(model)
    if witness is None:
        raise ValueError("Archimedean-inconsistent model: the closure is everything")
    options = b.without_zero()
    if not options:
        # Nothing desirable can be asserted through B; excluded by every
        # background-positive functional.
        return SuperlinF((witness,))
    for cone in _archimedean_candidates(model):
        per_option: list[LinearF] = []
        for v in options:
            evidence = option_separation(cone, v)
            if evidence is None:
                break
            per_option.append(evidence)
        else:
            envelope = SuperlinF(tuple(per_option))
            lp.verified(separates(envelope, cone, options), "excluding envelope")
            return envelope
    return None


def archimedean_member(model: AssessmentK, b: OptionSet) -> bool:
    return archimedean_member_evidence(model, b) is None


def is_binary(model: AssessmentK) -> bool:
    """Does every assessment set contain an option whose singleton is in the closure?"""
    return all(
        any(member(model, option_set(u)) for u in a.without_zero()) for a in model.assessment
    )


class KmOutcome(Enum):
    PASS = "pass"
    VIOLATION = "violation"


def km_check(model: KModel, b: OptionSet, b2: OptionSet) -> KmOutcome:
    """Check the mixing axiom on one instance: B subset of B2 subset of posi(B)."""
    if not all(u in b2 for u in b):
        raise ValueError("precondition failed: B is not a subset of B2")
    base = list(b.options)
    for u in b2:
        if u not in b and not posi_member(base, u):
            raise ValueError("precondition failed: B2 is not inside posi(B)")
    if member(model, b2) and not member(model, b):
        return KmOutcome.VIOLATION
    return KmOutcome.PASS


def displaced(a: OptionSet, u: Vector) -> OptionSet:
    """A without u, displaced by -u: the set the rejection bridge queries."""
    return OptionSet(tuple(v - u for v in a if v != u))


def reject(model: KModel, a: OptionSet) -> OptionSet:
    """Options u in A whose removal-and-displacement lands in the model."""
    if len(a) < 1:
        raise ValueError("need a nonempty menu")
    return OptionSet(tuple(u for u in a if member(model, displaced(a, u))))


def choose(model: KModel, a: OptionSet) -> OptionSet:
    rejected = reject(model, a)
    return OptionSet(tuple(u for u in a if u not in rejected))


def e_admissible(credal: Sequence[LinearF], a: OptionSet) -> OptionSet:
    """Options maximizing expected value under at least one credal functional."""
    if not credal:
        raise ValueError("need a nonempty credal set")
    chosen = []
    for u in a:
        for f in credal:
            value = f.eval(u)
            if all(value >= f.eval(v) for v in a):
                chosen.append(u)
                break
    return OptionSet(tuple(chosen))


def maximal(cone: DesirCone, a: OptionSet) -> OptionSet:
    """Options not strictly dominated within the menu: no v with v - u in the cone."""
    return OptionSet(
        tuple(
            u
            for u in a
            if not any(v != u and cone_member(cone, v - u) for v in a)
        )
    )
