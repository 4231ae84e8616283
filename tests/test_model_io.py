import json
from fractions import Fraction
from pathlib import Path

import pytest

from conechoice.choice import AssessmentK, BinaryK, CredalK
from conechoice.cone import LexCone, OpenDualCone, PosiCone
from conechoice.functional import LinearF, SuperlinF
from conechoice.model_io import ModelError, load_model
from conechoice.numeric import Background, vec


COIN_FIXTURE = Path(__file__).resolve().parents[1] / "models" / "coin.json"

MINIMAL = {"space": {"dim": 2, "background": "pointwise"}}


def write(tmp_path, payload) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_loads_the_shipped_coin_fixture():
    model = load_model(str(COIN_FIXTURE))
    assert model.space.dim == 2
    assert model.space.background is Background.POINTWISE
    assert isinstance(model.cones["D_I"], OpenDualCone)
    assert isinstance(model.cones["D_H"], LexCone)
    assert isinstance(model.cones["D_sector"], PosiCone)
    assert isinstance(model.functionals["L_I"], SuperlinF)
    assert isinstance(model.functionals["L_half"], LinearF)
    assert isinstance(model.k_models["K_hot"], AssessmentK)
    assert isinstance(model.k_models["K_cred"], CredalK)
    assert isinstance(model.k_models["K_bin"], BinaryK)
    assert model.lotteries["heads_bet"].reference_reward == "bot"
    assert len(model.queries) == 11


def test_default_reference_option(tmp_path):
    model = load_model(write(tmp_path, MINIMAL))
    assert model.space.u_o == vec(1, 1)


def test_rejects_floats(tmp_path):
    payload = dict(MINIMAL, functionals={"L": {"type": "linear", "coeffs": [0.5, "1/2"]}})
    with pytest.raises(ModelError, match="float"):
        load_model(write(tmp_path, payload))


def test_rejects_numeric_scalars(tmp_path):
    payload = dict(MINIMAL, functionals={"L": {"type": "linear", "coeffs": [1, "1/2"]}})
    with pytest.raises(ModelError, match="strings"):
        load_model(write(tmp_path, payload))


def test_rejects_bad_rational(tmp_path):
    payload = dict(MINIMAL, functionals={"L": {"type": "linear", "coeffs": ["1/0", "1"]}})
    with pytest.raises(ModelError, match="denominator"):
        load_model(write(tmp_path, payload))
    # A malformed literal is never kept as parsed: repeated across the file,
    # and across loads, it fails at its first location every time.
    payload = dict(
        MINIMAL,
        cones={"D": {"type": "posi", "generators": [["1", "1"], ["1/0", "1/0"]]}},
        functionals={"L": {"type": "linear", "coeffs": ["1/0", "1/0"]}},
    )
    path = write(tmp_path, payload)
    for _ in range(2):
        with pytest.raises(ModelError, match=r"^cones\.D\.generators\[1\]: .*denominator"):
            load_model(path)


def test_rejects_non_interior_reference(tmp_path):
    payload = {"space": {"dim": 2, "background": "pointwise", "u_o": ["1", "0"]}}
    with pytest.raises(ModelError, match="interior"):
        load_model(write(tmp_path, payload))


def test_rejects_unknown_background(tmp_path):
    payload = {"space": {"dim": 2, "background": "upper"}}
    with pytest.raises(ModelError, match="background"):
        load_model(write(tmp_path, payload))


def test_rejects_dimension_mismatch(tmp_path):
    payload = dict(
        MINIMAL, cones={"D": {"type": "posi", "generators": [["1", "2", "3"]]}}
    )
    with pytest.raises(ModelError, match="dimension"):
        load_model(write(tmp_path, payload))


def test_rejects_duplicate_names(tmp_path):
    payload = dict(
        MINIMAL,
        cones={"X": {"type": "posi", "generators": []}},
        functionals={"X": {"type": "linear", "coeffs": ["1", "1"]}},
    )
    with pytest.raises(ModelError, match="unique"):
        load_model(write(tmp_path, payload))


def test_rejects_unknown_cone_reference(tmp_path):
    # A reference that is not a string cannot name a cone (nor be hashed).
    cones = {"D": {"type": "posi", "generators": []}}
    for reference in ("nope", ["D"], {}):
        payload = dict(MINIMAL, cones=cones, k_models={"K": {"type": "binary", "cone": reference}})
        with pytest.raises(ModelError, match=r"k_models\.K\.cone: unknown cone"):
            load_model(write(tmp_path, payload))


def test_rejects_dependent_lex_levels(tmp_path):
    for levels in ([["1", "1"], ["2", "2"]], [["1/2", "-1/3"], ["-3", "2"]]):
        payload = dict(MINIMAL, cones={"D": {"type": "lex", "levels": levels}})
        with pytest.raises(ModelError, match="independent"):
            load_model(write(tmp_path, payload))


def test_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ModelError, match="line"):
        load_model(str(path))


def test_rejects_missing_file(tmp_path):
    with pytest.raises(ModelError, match="cannot read"):
        load_model(str(tmp_path / "absent.json"))


def test_rejects_queries_without_kind(tmp_path):
    payload = dict(MINIMAL, queries=[{"name": "x"}])
    with pytest.raises(ModelError, match="kind"):
        load_model(write(tmp_path, payload))


def test_rejects_bad_lottery_masses(tmp_path):
    payload = dict(
        MINIMAL,
        lotteries={
            "bad": {
                "states": ["H", "T"],
                "rewards": ["a", "b"],
                "h": [["1", "1"], ["0", "1"]],
                "g": [["1/2", "1/2"], ["1/2", "1/2"]],
            }
        },
    )
    with pytest.raises(ModelError, match="sum"):
        load_model(write(tmp_path, payload))
    # Rational masses over mixed denominators: the row sum decides, and a
    # negative mass is refused even when the row sums to one.
    good = ["1/3", "1/6", "1/2"]
    for row, error in ((good, None), (["1/3", "1/6", "1/3"], "sum"),
                       (["-1/6", "2/3", "1/2"], "nonnegative"),
                       (["1/2", "1/2"], r"^lotteries\.L\.h\[1\]: expected 3 entries")):
        block = {"states": ["H", "T"], "rewards": ["a", "b", "c"], "h": [good, row], "g": [good, good]}
        path = write(tmp_path, dict(MINIMAL, lotteries={"L": block}))
        if error is None:
            # The mass of reward c in state T.
            assert load_model(path).lotteries["L"].h.table[1][2] == Fraction(1, 2)
        else:
            with pytest.raises(ModelError, match=error):
                load_model(path)
