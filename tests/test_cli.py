import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conechoice import cone as cone_module
from conechoice import lp
from conechoice.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    check_queries,
    main,
    run_query,
)
from conechoice.model_io import load_model

ROOT = Path(__file__).resolve().parents[1]
COIN = str(ROOT / "models" / "coin.json")
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

    # The forms of a separating functional and of an excluding envelope,
    # which the golden files do not show.
    code, records = run_json(
        capsys, "arch", COIN, "--target", "D_sector", "--option", "1,-1"
    )
    assert code == EXIT_OK
    assert records["arch"]["answer"] is False
    assert records["arch"]["witness"] == ["2", "2"]

    code, records = run_json(capsys, "arch", COIN, "--target", "K_hot", "--option-set=0,-1;-1,0")
    assert code == EXIT_OK
    assert records["arch"]["answer"] is False
    assert records["arch"]["witness"] == {"type": "superlinear", "pieces": [["1", "2"], ["1", "2"]]}


# Each flag subcommand of the README, and two more, with the model-file query it stands for.
FLAG_QUERIES = (
    (("member", "--target", "D_I", "--option", "1,-1"),
     {"kind": "member", "target": "D_I", "option": ["1", "-1"]}),
    (("member", "--target", "K_hot", "--option-set", "1,-1;-1,1"),
     {"kind": "member", "target": "K_hot", "option_set": [["1", "-1"], ["-1", "1"]]}),
    (("arch", "--target", "D_sector", "--option", "1,-1"),
     {"kind": "arch_member", "target": "D_sector", "option": ["1", "-1"]}),
    (("arch", "--target", "K_hot", "--option-set=0,-1;-1,0"),
     {"kind": "arch_member", "target": "K_hot", "option_set": [["0", "-1"], ["-1", "0"]]}),
    (("arch", "--target", "D_I"), {"kind": "arch_consistent", "target": "D_I"}),
    # An empty --option-set is the empty option set, not an absent flag.
    (("member", "--target", "K_hot", "--option-set", ""),
     {"kind": "member", "target": "K_hot", "option_set": []}),
    (("arch", "--target", "K_hot", "--option-set="),
     {"kind": "arch_member", "target": "K_hot", "option_set": []}),
    (("nml", "--functional", "L_half"), {"kind": "nml", "target": "L_half"}),
    (("choose", "--rule", "eadm", "--target", "K_cred", "--menu", "1,0;0,1;1/2,1/2"),
     {"kind": "choose", "rule": "eadm", "target": "K_cred",
      "menu": [["1", "0"], ["0", "1"], ["1/2", "1/2"]]}),
)


def test_flag_subcommands_answer_as_their_file_queries(capsys):
    model = load_model(COIN)
    for (command, *flags), query in FLAG_QUERIES:
        code, out, _ = run(capsys, command, COIN, *flags, "--json")
        assert code == EXIT_OK, flags
        (record,) = json.loads(out)["queries"]
        expected = run_query(model, query)
        del record["name"], expected["name"]
        assert record == expected, flags


def test_an_undecided_mixing_answer_carries_no_witness(tmp_path, capsys):
    # No functional separates a cone that holds a line, so its mixing is unknown.
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "space": {"dim": 2, "background": "pointwise"},
        "cones": {"L": {"type": "posi", "generators": [["1", "-1"], ["-1", "1"]]}},
        "queries": [{"name": "q", "kind": "mixing", "target": "L"}],
    }))
    code, records = run_json(capsys, "report", str(path))
    assert code == EXIT_OK
    assert records["q"] == {"name": "q", "kind": "mixing", "target": "L", "answer": "unknown"}


def test_readme_cli_examples_exit_0(tmp_path, capsys, monkeypatch):
    # Every command of the README's CLI block, then report and check on its
    # example model file.
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True) for line in block.splitlines()
        if line.startswith("conechoice ")
    ]
    assert len(commands) == 8
    model = tmp_path / "readme.json"
    model.write_text(readme.split("## Model files", 1)[1].split("```json", 1)[1].split("```", 1)[0])
    commands += [["conechoice", command, str(model)] for command in ("report", "check")]
    monkeypatch.chdir(ROOT)
    for argv in commands:
        code, out, err = run(capsys, *argv[1:])
        assert code == EXIT_OK and out and not err, (argv, err)


def test_arch_closure_on_inconsistent_cone_exits_2(capsys):
    code, records = run_json(capsys, "arch", COIN, "--target", "D_H", "--option=-1,0")
    assert code == EXIT_PRECONDITION
    assert "error" in records["arch"]


def test_lambda_o_on_a_piece_vanishing_at_u_o_exits_2(tmp_path, capsys):
    model = tmp_path / "open_dual.json"
    model.write_text(json.dumps({
        "space": {"dim": 2, "background": "pointwise", "u_o": ["1", "1"]},
        "cones": {"O": {"type": "open_dual", "pieces": [["1", "-1"], ["1", "0"]]}},
        "queries": [{"name": "q", "kind": "lambda_o", "target": "O", "option": ["1", "0"]}],
    }))
    code, records = run_json(capsys, "report", str(model))
    assert code == EXIT_PRECONDITION
    assert "nonpositive at u_o" in records["q"]["error"]


def test_lambda_o_of_a_posi_cone_is_finite_unless_its_hull_is_all_of_v(tmp_path, capsys):
    # posi((1,0), (-1,0)) is not pointed, yet its closed hull, the upper
    # half-plane, misses -u_o, so Lambda_o at (1,1) is 1.  The hull of
    # posi((-1,-1)) holds -u_o and is all of V: Lambda_o is +infinity, an
    # error record in JSON and in text.
    model = tmp_path / "posi.json"

    def write(generators, option):
        model.write_text(json.dumps({
            "space": {"dim": 2, "background": "pointwise", "u_o": ["1", "1"]},
            "cones": {"P": {"type": "posi", "generators": generators}},
            "queries": [{"name": "q", "kind": "lambda_o", "target": "P", "option": option}],
        }))

    write([["1", "0"], ["-1", "0"]], ["1", "1"])
    code, records = run_json(capsys, "report", str(model))
    assert code == EXIT_OK and records["q"]["answer"] == "1", records

    write([["-1", "-1"]], ["1", "0"])
    code, records = run_json(capsys, "report", str(model))
    message = "lambda_o is +infinity: the closed hull of the cone is all of V"
    assert code == EXIT_PRECONDITION
    assert records["q"] == {"name": "q", "kind": "lambda_o", "target": "P", "error": message}
    code, out, _ = run(capsys, "report", str(model))
    assert code == EXIT_PRECONDITION
    assert out == f"q: lambda_o(P) -> error: {message}\n"


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

    # An empty --option is a malformed vector, not an absent flag, and an
    # empty --option-set is still an option set, which a cone target refuses.
    for command in ("member", "arch"):
        code, out, err = run(capsys, command, COIN, "--target", "D_I", "--option", "")
        assert code == EXIT_USAGE and not out, command
        assert "bad option" in err, err
        code, out, err = run(capsys, command, COIN, "--target", "D_I", "--option-set", "")
        assert code == EXIT_USAGE and not out, command
        assert "a cone target takes an 'option' (--option)" in err, err

    # report has no --text flag: text is what it prints without --json.
    code, out, err = run(capsys, "report", COIN, "--text")
    assert code == EXIT_USAGE and not out
    assert "unrecognized arguments: --text" in err, err

    # Flag vectors take the model file's parse path: a bad or short entry in
    # any set is a usage error that names the query field.  So is a model
    # file's option entry that is a list, which cannot be parsed (or hashed).
    coin = json.loads(Path(COIN).read_text())
    nested = tmp_path / "nested_entry.json"
    nested.write_text(json.dumps(
        {**coin, "queries": [{"name": "q", "kind": "member", "target": "D_I", "option": [["1"], "0"]}]}
    ))
    for argv, field in (
        (("member", COIN, "--target", "K_hot", "--option-set", "1,-1;1,oops"), "option_set entry"),
        (("arch", COIN, "--target", "K_hot", "--option-set", "1,-1;1"), "option_set entry"),
        (("choose", COIN, "--rule", "reject", "--target", "K_cred", "--menu", "1,0;0,1/0"), "menu entry"),
        (("report", str(nested)), "option"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert f"bad {field}" in err, err

    # A cone target takes --option; the error says so, not that a field the
    # user never passed is missing.
    for argv in (
        ("arch", COIN, "--target", "D_H", "--option-set", "1,-1"),
        ("member", COIN, "--target", "D_I", "--option-set", "1,-1;0,1"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "a cone target takes an 'option' (--option)" in err, err
        assert "is for k-models" in err, err

    # A k-model target takes --option-set, from the flags or from a model file.
    path = tmp_path / "k_option.json"
    path.write_text(json.dumps(
        {**coin, "queries": [{"name": "q", "kind": "member", "target": "K_hot", "option": ["1", "0"]}]}
    ))
    for argv in (
        ("member", COIN, "--target", "K_hot", "--option", "1,0"),
        ("arch", COIN, "--target", "K_hot", "--option", "1,0"),
        ("report", str(path)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "a k-model target takes an 'option_set' (--option-set)" in err, err
        assert "'option' (--option) is for cones" in err, err

    # --option and --option-set together are refused, not half read.
    for command in ("member", "arch"):
        code, out, err = run(
            capsys, command, COIN, "--target", "D_I", "--option", "1,0", "--option-set", "1,0"
        )
        assert code == EXIT_USAGE, command
        assert "not allowed with argument" in err and not out, err

    # The parser is built once per process; a usage error leaves it fit for the next call.
    code, records = run_json(capsys, "member", COIN, "--target", "D_I", "--option", "1,-1")
    assert code == EXIT_OK and records["member"]["answer"] is False

    code, _, err = run(capsys, "choose", COIN, "--rule", "eadm", "--target", "D_I", "--menu", "1,0")
    assert code == EXIT_USAGE

    # An empty menu is a usage error under every rule.
    for rule, target in (("maximality", "D_I"), ("eadm", "K_cred"), ("reject", "K_cred")):
        code, _, err = run(capsys, "choose", COIN, "--rule", rule, "--target", target, "--menu", "")
        assert code == EXIT_USAGE, rule
        assert "nonempty" in err

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
    for query, field in (
        ({"kind": "choose", "rule": "eadm", "target": "K_cred", "menu": ["10", "01"]}, "menu"),
        ({"kind": "member", "target": "D_I", "option": "10"}, "option"),
        ({"kind": "member", "target": ["D_I"], "option": ["1", "0"]}, "'target'"),
        ({"kind": 3, "target": "D_I"}, "'kind'"),
        ({"kind": "choose", "rule": "maximality", "target": "D_I", "menu": []}, "nonempty"),
        ({"kind": "choose", "rule": "eadm", "target": "K_cred", "menu": []}, "nonempty"),
        ({"kind": "choose", "rule": "reject", "target": "K_cred", "menu": []}, "nonempty"),
        # A vector of the wrong dimension is malformed input, not a precondition.
        ({"kind": "member", "target": "D_I", "option": ["1", "0", "0"]}, "expected 2 entries"),
        (
            {"kind": "choose", "rule": "eadm", "target": "K_cred", "menu": [["1", "0", "0"]]},
            "expected 2 entries",
        ),
        # Each kind and rule needs its own kind of target, and each query its fields.
        ({"kind": "consistent", "target": "D_I"}, "kind 'consistent' does not apply to a cone"),
        ({"kind": "member", "target": "D_I"}, "query needs an 'option' field"),
        (
            {"kind": "consistent", "target": "K_cred"},
            "consistency queries need an assessment model",
        ),
        ({"kind": "coherent", "target": "K_hot"}, "kind 'coherent' does not apply to a k-model"),
        (
            {"kind": "choose", "rule": "maximality", "target": "K_cred", "menu": [["1", "0"]]},
            "maximality needs a cone target, 'K_cred'",
        ),
        (
            {"kind": "choose", "rule": "eadm", "target": "K_hot", "menu": [["1", "0"]]},
            "eadm needs a credal k-model",
        ),
        (
            {"kind": "choose", "rule": "foo", "target": "K_cred", "menu": [["1", "0"]]},
            "unknown rule 'foo'",
        ),
        ({"kind": "choose", "target": "K_cred", "menu": [["1", "0"]]}, 'need a "rule" field'),
        ({"kind": "nml", "target": "D_I"}, "unknown functional 'D_I'"),
        ({"kind": "embed", "target": "D_I"}, "unknown lottery block 'D_I'"),
    ):
        path = tmp_path / "coin_queries.json"
        path.write_text(json.dumps({**coin, "queries": [{"name": "q", **query}]}))
        code, _, err = run(capsys, "report", str(path))
        assert code == EXIT_USAGE, query
        assert "usage error" in err and field in err, err


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "conechoice", "check", COIN, "--json"],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == (GOLDEN / "coin_check.json").read_text()


def test_a_closed_stdout_ends_the_output_without_a_traceback():
    # As in `conechoice report coin.json | head -3`, with the reader gone
    # before the first write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "conechoice", "report", COIN],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr
    assert proc.returncode == EXIT_OK


def test_lp_solves_per_coin_query(monkeypatch):
    # `check` and then `report` on one loaded model, as the CLI runs them.
    # D_sector.mixing reads its separation and its witness pair's membership
    # from the sector's hull dual, and K_hot.is_binary its members' too, so
    # neither solves a separation or a membership LP; Lambda_o at the kernel
    # direction is certified by one exact solve.  The two choose records
    # evaluate a credal set's functionals and an open-dual cone's pieces.
    calls = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: calls.append(problem) or solve(problem))
    model = load_model(COIN)
    solves = {}
    for query in check_queries(model) + model.queries:
        before = len(calls)
        run_query(model, query)
        solves[query["name"]] = len(calls) - before
    assert {name: solves[name] for name in (
        "D_H.arch_consistent", "K_hot.is_binary", "hot_membership", "D_sector.mixing",
        "eadm_choice", "maximality_choice",
    )} == {"D_H.arch_consistent": 1, "K_hot.is_binary": 1, "hot_membership": 0, "D_sector.mixing": 0,
           "eadm_choice": 0, "maximality_choice": 0}


def test_coin_open_dual_cones_are_consistent_with_no_lp(monkeypatch):
    # D_I, D_half and D_third are Archimedean-consistent by the sum of their
    # pieces, scaled to the LP's normalisation: (1, 1), as tests/golden
    # records, with no LP.
    calls = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: calls.append(problem) or solve(problem))
    model = load_model(COIN)
    names = ("D_I.arch_consistent", "D_half.arch_consistent", "D_third.arch_consistent")
    records = [run_query(model, q) for q in check_queries(model) if q["name"] in names]
    assert [record["name"] for record in records] == list(names)
    for record in records:
        assert record["answer"] is True and record["witness"] == ["1", "1"], record
    assert calls == []


def test_arch_member_solves_no_lp_for_a_non_member(tmp_path, capsys, monkeypatch):
    # The closure query reads the sector's option-free separation, the sum
    # of its hull dual's rays, and the membership of (2, -1), whose active
    # ray is negative there; the witness for the record is built from those
    # two, so neither the closure nor separate, asked next by the CLI, solves
    # an LP.
    space = {"dim": 2, "background": "pointwise", "u_o": ["1", "1"]}
    sector = {"type": "posi", "generators": [["3/4", "-1/4"], ["-1/4", "3/4"]]}
    query = {"name": "q", "kind": "arch_member", "target": "D", "option": ["2", "-1"]}
    path = tmp_path / "sector.json"
    path.write_text(json.dumps({"space": space, "cones": {"D": sector}, "queries": [query]}))
    calls = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: calls.append(problem) or solve(problem))
    code, records = run_json(capsys, "report", str(path))
    assert code == EXIT_OK
    assert records["q"]["answer"] is False and "witness" in records["q"]
    assert calls == []


def test_query_vector_entries_must_be_strings(tmp_path, capsys):
    # A model file's query vector takes the wording of its data: an entry
    # that is not a string is refused before it is parsed.
    coin = json.loads(Path(COIN).read_text())
    path = tmp_path / "entries.json"
    for option in ([["1"], "0"], [1, "0"]):
        query = {"name": "q", "kind": "member", "target": "D_I", "option": option}
        path.write_text(json.dumps({**coin, "queries": [query]}))
        code, _, err = run(capsys, "report", str(path))
        assert code == EXIT_USAGE, option
        assert 'bad option: rationals must be strings like "p/q"' in err, err
    # Flag vectors are strings, and still parse.
    code, records = run_json(capsys, "member", COIN, "--target", "D_I", "--option", "1/2,1")
    assert code == EXIT_OK and records["member"]["answer"] is True
    code, records = run_json(capsys, "member", COIN, "--target", "K_hot", "--option-set", "1,-1;-1,1")
    assert code == EXIT_OK and "answer" in records["member"]


def test_data_errors_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": {"dim": 2, "background": "pointwise", "u_o": ["1", "0"]}}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == EXIT_DATA
    assert "model error" in err

    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == EXIT_DATA

    # JSON true is a Python bool, and bool is a subclass of int.
    bad.write_text('{"space": {"dim": true, "background": "pointwise", "u_o": ["1"]}}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == EXIT_DATA
    assert "space.dim" in err

    # A dimension past the loader's bound is refused before anything of that
    # size is built, whether or not u_o is given.
    for space in ({"dim": 10**15, "background": "pointwise"},
                  {"dim": 10**15, "background": "pointwise", "u_o": ["1"]}):
        bad.write_text(json.dumps({"space": space}))
        code, _, err = run(capsys, "check", str(bad))
        assert code == EXIT_DATA, space
        assert "model error" in err and "space.dim" in err, err

    # A binary k-model's cone reference must be a cone's name.
    bad.write_text(json.dumps({
        "space": {"dim": 2, "background": "pointwise"},
        "cones": {"D": {"type": "posi", "generators": []}},
        "k_models": {"K": {"type": "binary", "cone": ["D"]}},
    }))
    code, _, err = run(capsys, "check", str(bad))
    assert code == EXIT_DATA
    assert "model error" in err and "k_models.K.cone" in err, err

    # A lottery block embeds into one coordinate per state and non-reference
    # reward, so it needs a state and two rewards.
    space = {"dim": 2, "background": "pointwise", "u_o": ["1", "1"]}
    for states, rewards in (([], []), ([], ["a", "b"]), (["s"], ["a"]), (["s"], [])):
        row = ["1"] + ["0"] * (len(rewards) - 1) if rewards else []
        block = {"states": states, "rewards": rewards, "h": [row] * len(states), "g": [row] * len(states)}
        bad.write_text(json.dumps({"space": space, "lotteries": {"L": block}}))
        code, _, err = run(capsys, "check", str(bad))
        assert code == EXIT_DATA, (states, rewards)
        assert "model error" in err and "lotteries.L" in err, err

    # Every schema check of the loader names the field it refuses.
    def with_space(**sections):
        return {"space": space, **sections}

    block = {"states": ["H", "T"], "rewards": ["top", "bot"], "h": [["1", "0"], ["0", "1"]],
             "g": [["1", "0"], ["0", "1"]]}
    for content, field in (
        (with_space(cones={"C": {"type": "ball"}}), "cones.C: unknown cone type 'ball'"),
        (
            with_space(functionals={"F": {"type": "quadratic"}}),
            "functionals.F: unknown functional type 'quadratic'",
        ),
        (with_space(k_models={"K": {"type": "fuzzy"}}), "k_models.K: unknown k-model type 'fuzzy'"),
        (with_space(cones={"C": {"generators": []}}), 'cones.C: expected an object with a "type"'),
        (with_space(functionals={"F": {"coeffs": ["1", "1"]}}), "functionals.F: expected an object"),
        (with_space(k_models={"K": ["assessment"]}), "k_models.K: expected an object"),
        (
            with_space(k_models={"K": {"type": "assessment", "assessment": "1,0"}}),
            "k_models.K.assessment: expected a list of option sets",
        ),
        (
            with_space(k_models={"K": {"type": "assessment", "assessment": [[]]}}),
            "k_models.K.assessment[0]: option sets must be nonempty",
        ),
        (
            with_space(functionals={"F": {"type": "superlinear", "pieces": []}}),
            "functionals.F: a min-envelope needs at least one piece",
        ),
        (
            with_space(k_models={"K": {"type": "credal", "functionals": [["1", "-1"]]}}),
            "k_models.K: credal functionals must be background-positive",
        ),
        (
            with_space(cones={"C": {"type": "posi", "generators": "1,0"}}),
            "cones.C.generators: expected a list of vectors",
        ),
        (with_space(cones=[]), "cones: expected an object of named entries"),
        (with_space(queries={}), "queries: expected a list"),
        ({"space": ["2", "pointwise"]}, "space: expected an object"),
        ({"space": {"background": "pointwise"}}, "space: missing field 'dim'"),
        ([{"space": space}], 'model file must be an object with a "space" field'),
        (with_space(lotteries={"L": [block]}), "lotteries.L: expected an object"),
        (with_space(lotteries={"L": {**block, "states": [1, 2]}}), "lotteries.L.states"),
        (with_space(lotteries={"L": {**block, "rewards": "top,bot"}}), "lotteries.L.rewards"),
        (
            with_space(lotteries={"L": {**block, "h": [["1", "0"]]}}),
            "lotteries.L.h: expected one row per state",
        ),
        (with_space(lotteries={"L": {**block, "alpha": "0"}}), "lotteries.L.alpha: must be positive"),
        (
            with_space(lotteries={"L": {**block, "alpha": 1}}),
            'lotteries.L.alpha: rationals must be strings like "p/q"',
        ),
        (
            with_space(lotteries={"L": {**block, "reference_reward": "mid"}}),
            "lotteries.L.reference_reward: unknown reward 'mid'",
        ),
    ):
        bad.write_text(json.dumps(content))
        code, out, err = run(capsys, "check", str(bad))
        assert code == EXIT_DATA and not out, content
        assert f"model error: {field}" in err, err

    # JSON keeps only the last of two equal keys, in any object of the file;
    # the loader refuses the repeat instead of silently using the last.
    posi = '{"type": "posi", "generators": [["1", "-1"]]}'
    for content, key in (
        ('{"space": %s, "cones": {"D": %s, "D": {"type": "posi", "generators": []}}}'
         % (json.dumps(space), posi), "D"),
        ('{"space": %s, "cones": {"D": {"type": "posi", "generators": [["1", "-1"]],'
         ' "generators": []}}}' % json.dumps(space), "generators"),
        ('{"space": %s, "space": %s}' % (json.dumps(space), json.dumps(space)), "space"),
        ('{"space": %s, "cones": {"D": %s}, "queries": [{"kind": "member", "target": "D",'
         ' "option": ["1", "-1"], "kind": "coherent"}]}' % (json.dumps(space), posi), "kind"),
    ):
        bad.write_text(content)
        code, out, err = run(capsys, "check", str(bad))
        assert code == EXIT_DATA and not out, content
        assert f"model error: keys must be unique within an object, repeated: ['{key}']" in err, err

    # Malformed files the JSON reader itself rejects: nesting past the
    # recursion limit, an integer past the int-string digit limit, and bytes
    # that are not UTF-8.
    for content in (
        b"[" * 100_000 + b"]" * 100_000,
        b'{"space": {"dim": 2, "background": "pointwise", "u_o": [' + b"1" * 5000 + b', "1"]}}',
        b'{"space": {"dim": 2, "background": "pointwise", "u_o": ["\xff", "1"]}}',
    ):
        bad.write_bytes(content)
        code, _, err = run(capsys, "check", str(bad))
        assert code == EXIT_DATA, content[:40]
        assert "model error" in err, err


@pytest.mark.parametrize("command", ["report", "check"])
def test_coin_json_output_matches_golden(capsys, command):
    # The golden files pin every witness and certificate, in the JSON and in
    # the text output, so a change to the pivot rule, the certificate
    # read-out or a record's form shows as a diff, not only as evidence that
    # still verifies.
    for flags, suffix in ((("--json",), "json"), ((), "txt")):
        code, out, _ = run(capsys, command, COIN, *flags)
        assert code == EXIT_OK
        assert out == (GOLDEN / f"coin_{command}.{suffix}").read_text()


def test_lambda_o_output_matches_golden(capsys):
    # Lambda_o of every cone class under a non-unit u_o, in JSON and in text:
    # posi cones by their hull's dual rays, one whose hull is all of V, open
    # duals by their pieces (one repeated up to a positive factor, one
    # vanishing at u_o) and lexicographic cones of one and two levels by
    # their first level.  The two error records make report exit 2.
    model = str(GOLDEN / "lambda_o.json")
    for flags, suffix in ((("--json",), "json"), ((), "txt")):
        code, out, _ = run(capsys, "report", model, *flags)
        assert code == EXIT_PRECONDITION
        assert out == (GOLDEN / f"lambda_o_report.{suffix}").read_text()


def test_past_cap_output_matches_golden_and_the_answers_read_from_rays(capsys, monkeypatch):
    # A 65-dimensional strict-dominance model, one dimension more than
    # DD_RAY_CAP, keeps no double description, so each PosiCone answer takes
    # the past-cap path: the Lambda_o LP's record for member (inside, on a
    # facet of the closed hull and in posi(generators), on one and not in
    # it, and outside), arch_member and lambda_o, an unbounded LP's ray for
    # a hull that is all of V, and the -u_o question for an inconsistent
    # extension.  The generators are sparse, so with the cap raised to 128
    # the double description stays small and answers the same queries with
    # no LP that has an objective, and every answer is the same.
    model = str(GOLDEN / "past_cap.json")
    for flags, suffix in ((("--json",), "json"), ((), "txt")):
        code, out, _ = run(capsys, "report", model, *flags)
        assert code == EXIT_OK
        assert out == (GOLDEN / f"past_cap_report.{suffix}").read_text()
    solve = lp.solve
    objectives = []
    monkeypatch.setattr(lp, "solve", lambda p: objectives.append(p.objective) or solve(p))
    answers = []
    for cap in (cone_module.DD_RAY_CAP, 128):
        monkeypatch.setattr(cone_module, "DD_RAY_CAP", cap)
        objectives.clear()
        code, records = run_json(capsys, "report", model)
        assert code == EXIT_OK
        answers.append({name: record["answer"] for name, record in records.items()})
        assert any(objectives) == (cap < 128)
    assert answers[0] == answers[1]
    assert set(answers[0].values()) == {True, False, "1/2", "-1"}
