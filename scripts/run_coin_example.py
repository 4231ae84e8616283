#!/usr/bin/env python3
"""Walk through the coin betting scenario end to end.

A subject considers bets on a coin flip with heads-probability somewhere in
[1/4, 3/4].  The script builds the associated models, checks their flags,
and runs the decision rules on a small menu, printing every exact answer.

Run from the repository root:

    python3 scripts/run_coin_example.py
"""

from fractions import Fraction

from conechoice import (
    AssessmentK,
    Background,
    BinaryK,
    CredalK,
    LexCone,
    LinearF,
    OpenDualCone,
    OptionSet,
    OptionSpace,
    PosiCone,
    SuperlinF,
    archimedean_consistent,
    choose,
    is_coherent,
    is_essentially_archimedean,
    is_mixing,
    member,
    natural_extension,
    nml,
    vec,
)
from conechoice.choice import archimedean_consistent as k_archimedean_consistent
from conechoice.choice import consistent as k_consistent
from conechoice.choice import is_binary
from conechoice.choice import member as k_member


def expectation_functional(p: Fraction) -> LinearF:
    """The linear functional u -> p*u_heads + (1-p)*u_tails."""
    return LinearF(vec(p, 1 - p))


def main() -> None:
    space = OptionSpace(dim=2, background=Background.POINTWISE, u_o=vec(1, 1))
    p_lo, p_hi = Fraction(1, 4), Fraction(3, 4)

    print("== assessments ==")
    heads = [vec(1, 0), vec(1, -1)]  # truncated "I'd bet on heads" statements
    tails = [vec(0, 1), vec(-1, 1)]
    for name, assessment in [("heads", heads), ("tails", tails), ("joint", heads + tails)]:
        _, report = natural_extension(assessment, space)
        print(f"  {name}: consistent={report.consistent}")
        if report.combination:
            combo = " + ".join(f"{c} * {v}" for v, c in report.combination)
            print(f"    offending combination: {combo} = 0")

    print("== interval model D_I ==")
    d_interval = OpenDualCone(
        (expectation_functional(p_lo), expectation_functional(p_hi)), space
    )
    print(f"  coherent={is_coherent(d_interval)}")
    print(f"  mixing={is_mixing(d_interval).status}")
    print(f"  essentially Archimedean={is_essentially_archimedean(d_interval)}")
    print(f"  Archimedean consistent={archimedean_consistent(d_interval)}")
    print(f"  (1,-1) desirable: {member(d_interval, vec(1, -1))}")
    print(f"  (1,-1/4) desirable: {member(d_interval, vec(1, '-1/4'))}")

    print("== lexicographic model D_H ==")
    d_lex = LexCone((LinearF(vec(1, 0)), LinearF(vec(0, 1))), space)
    print(f"  coherent={is_coherent(d_lex)}, mixing={is_mixing(d_lex).status}")
    print(f"  Archimedean consistent={archimedean_consistent(d_lex)}")

    print("== closed sector D_(1/4,3/4) ==")
    d_sector = PosiCone((vec(1 - p_lo, -p_lo), vec(-(1 - p_hi), p_hi)), space)
    boundary = vec(1 - p_lo, -p_lo)
    print(f"  boundary ray desirable: {member(d_sector, boundary)}")
    print(f"  essentially Archimedean={is_essentially_archimedean(d_sector)}")

    print("== interval envelope and its normalisation ==")
    envelope = SuperlinF((expectation_functional(p_lo), expectation_functional(p_hi)))
    print(f"  nml leaves it unchanged: {nml(envelope, space.u_o) == envelope}")

    print("== 'heads or tails' statement model ==")
    k_hot = AssessmentK(
        (OptionSet((vec(1, 0), vec(0, 1))), OptionSet((vec(1, -1), vec(-1, 1)))), space
    )
    print(f"  consistent={k_consistent(k_hot)}")
    print(f"  Archimedean consistent={k_archimedean_consistent(k_hot)}")
    print(f"  binary={is_binary(k_hot)}")
    both_bets = OptionSet((vec(1, -1), vec(-1, 1)))
    print(f"  'one of the two bets is desirable': {k_member(k_hot, both_bets)}")

    print("== decision rules on a three-option menu ==")
    credal = CredalK(
        (expectation_functional(Fraction(1, 3)), expectation_functional(Fraction(2, 3))),
        space,
    )
    menu = OptionSet((vec(1, 0), vec(0, 1), vec("1/2", "1/2")))
    # E-admissibility is choose over the credal model, and maximality is
    # choose over the binary model of the open cone the same functionals give.
    print(f"  E-admissible, choose(credal, menu): {[str(u) for u in choose(credal, menu)]}")
    d_pair = OpenDualCone(credal.functionals, space)
    print(f"  maximal, choose(BinaryK(d_pair), menu): "
          f"{[str(u) for u in choose(BinaryK(d_pair), menu)]}")


if __name__ == "__main__":
    main()
