import json
from pathlib import Path

import pytest

from conechoice.cli import EXIT_DATA, EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE, main

COIN = str(Path(__file__).resolve().parents[1] / "models" / "coin.json")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, {r["name"]: r for r in json.loads(out)["queries"]}


def test_report_answers_the_coin_queries(capsys):
    code, records = run_json(capsys, "report", COIN)
    assert code == EXIT_OK
    assert records["joint_assessment_consistency"]["answer"] is False
    assert records["joint_assessment_consistency"]["certificate"]
    assert records["heads_assessment_consistency"]["answer"] is True
    assert records["bet_on_heads_in_D_I"]["answer"] is False
    assert records["D_I_mixing"]["answer"] is False
    assert records["D_I_mixing"]["witness"]
    assert records["D_H_arch_consistent"]["answer"] is False
    assert records["D_H_arch_consistent"]["certificate"]
    assert records["D_sector_closure_boundary"]["answer"] is True
    assert records["normalize_L_I"]["answer"] == {
        "type": "superlinear",
        "pieces": [["1/4", "3/4"], ["3/4", "1/4"]],
    }
    assert records["hot_membership"]["answer"] is True
    assert records["eadm_choice"]["answer"] == [["0", "1"], ["1", "0"]]
    assert records["maximality_choice"]["answer"] == [
        ["0", "1"],
        ["1/2", "1/2"],
        ["1", "0"],
    ]
    assert records["heads_bet_embedding"]["answer"] == ["1/2", "-1/2"]


def test_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "report", COIN, "--json")
    _, second, _ = run(capsys, "report", COIN, "--json")
    assert first == second


def test_check_subcommand(capsys):
    code, records = run_json(capsys, "check", COIN)
    assert code == EXIT_OK
    assert records["D_I.coherent"]["answer"] is True
    assert records["D_I.mixing"]["answer"] is False
    assert records["D_I.essentially_archimedean"]["answer"] is True
    assert records["D_H.arch_consistent"]["answer"] is False
    assert records["K_hot.consistent"]["answer"] is True
    assert records["K_hot.is_binary"]["answer"] is False


def test_member_flags(capsys):
    code, records = run_json(capsys, "member", COIN, "--target", "D_I", "--option", "1,-1")
    assert code == EXIT_OK
    assert records["member"]["answer"] is False

    code, records = run_json(
        capsys, "member", COIN, "--target", "K_hot", "--option-set", "1,-1;-1,1"
    )
    assert code == EXIT_OK
    assert records["member"]["answer"] is True

    code, records = run_json(capsys, "member", COIN, "--target", "D_half", "--option", "0,0")
    assert code == EXIT_OK
    assert records["member"]["answer"] is False


def test_arch_flags(capsys):
    code, records = run_json(capsys, "arch", COIN, "--target", "D_I")
    assert code == EXIT_OK
    assert records["arch"]["answer"] is True
    assert records["arch"]["witness"]

    code, records = run_json(
        capsys, "arch", COIN, "--target", "D_sector", "--option", "1,-1"
    )
    assert code == EXIT_OK
    assert records["arch"]["answer"] is False
    assert records["arch"]["witness"]


def test_arch_closure_on_inconsistent_cone_exits_2(capsys):
    code, records = run_json(capsys, "arch", COIN, "--target", "D_H", "--option=-1,0")
    assert code == EXIT_PRECONDITION
    assert "error" in records["arch"]


def test_nml_flag(capsys):
    code, records = run_json(capsys, "nml", COIN, "--functional", "L_half")
    assert code == EXIT_OK
    assert records["nml"]["answer"] == {"type": "linear", "coeffs": ["1/2", "1/2"]}


def test_choose_flags(capsys):
    code, records = run_json(
        capsys,
        "choose",
        COIN,
        "--rule",
        "eadm",
        "--target",
        "K_cred",
        "--menu",
        "1,0;0,1;1/2,1/2",
    )
    assert code == EXIT_OK
    assert records["choose"]["answer"] == [["0", "1"], ["1", "0"]]

    code, records = run_json(
        capsys,
        "choose",
        COIN,
        "--rule",
        "reject",
        "--target",
        "K_cred",
        "--menu",
        "1,0;0,1;1/2,1/2",
    )
    assert code == EXIT_OK
    assert records["choose"]["answer"] == [["1/2", "1/2"]]


def test_text_report_mentions_every_query(capsys):
    code, out, _ = run(capsys, "report", COIN)
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 11
    assert any("eadm_choice" in line for line in lines)


def test_usage_errors_exit_64(tmp_path, capsys):
    code, _, err = run(capsys, "member", COIN, "--target", "nope", "--option", "1,1")
    assert code == EXIT_USAGE
    assert "usage error" in err

    code, _, err = run(capsys, "member", COIN, "--target", "D_I")
    assert code == EXIT_USAGE

    code, _, err = run(capsys, "member", COIN, "--target", "D_I", "--option", "1,oops")
    assert code == EXIT_USAGE

    code, _, err = run(capsys, "choose", COIN, "--rule", "eadm", "--target", "D_I", "--menu", "1,0")
    assert code == EXIT_USAGE

    # Malformed vector lists in a model file's queries are usage errors too.
    space = {"dim": 2, "background": "pointwise", "u_o": ["1", "1"]}
    for field, kind, extra in (
        ("assessment", "natural_extension", {}),
        ("menu", "choose", {"rule": "eadm", "target": "K_cred"}),
        ("option_set", "member", {"target": "K_cred"}),
    ):
        for entries in ([1], [["1", "oops"]], "1,0"):
            query = {"name": "q", "kind": kind, field: entries, **extra}
            path = tmp_path / "queries.json"
            path.write_text(json.dumps({"space": space, "queries": [query]}))
            code, _, err = run(capsys, "report", str(path))
            assert code == EXIT_USAGE, (field, entries)
            assert "usage error" in err

    # On the coin model these queries would be answered if a string were read
    # one character at a time, or would crash on an unhashable target.
    coin = json.loads(Path(COIN).read_text())
    for query, field in (
        ({"kind": "choose", "rule": "eadm", "target": "K_cred", "menu": ["10", "01"]}, "menu"),
        ({"kind": "member", "target": "D_I", "option": "10"}, "option"),
        ({"kind": "member", "target": ["D_I"], "option": ["1", "0"]}, "'target'"),
        ({"kind": 3, "target": "D_I"}, "'kind'"),
    ):
        path = tmp_path / "coin_queries.json"
        path.write_text(json.dumps({**coin, "queries": [{"name": "q", **query}]}))
        code, _, err = run(capsys, "report", str(path))
        assert code == EXIT_USAGE, query
        assert "usage error" in err and field in err, err


def test_data_errors_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": {"dim": 2, "background": "pointwise", "u_o": ["1", "0"]}}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == EXIT_DATA
    assert "model error" in err

    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == EXIT_DATA


@pytest.mark.parametrize("command", ["report", "check"])
def test_coin_json_output_matches_golden(capsys, command):
    # The golden files pin every witness and certificate, so a change to the
    # pivot rule or the certificate read-out shows as a diff, not only as
    # evidence that still verifies.
    code, out, _ = run(capsys, command, COIN, "--json")
    assert code == EXIT_OK
    assert out == (GOLDEN / f"coin_{command}.json").read_text()
