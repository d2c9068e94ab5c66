"""Command line behavior: subcommands, formats, exit codes."""

import json

import pytest

from leibniz_lab import cli
from leibniz_lab.algebra import StructureTable, derivation_algebra, load_table, save_table
from leibniz_lab.cli import MAX_TRIANGULAR_N, main, read_params, run
from leibniz_lab.extensions import derive_relations
from leibniz_lab.scalars import Scalar
from leibniz_lab.triangular import triangular


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def extension_params(tmp_path):
    return write(tmp_path / "ext.params", "\n".join([
        "# zero-trace diagonal with a nonzero generator square",
        "a1_12_12 = 1",
        "a1_23_23 = 1",
        "a1_34_34 = -2",
        "s11 = 1",
    ]) + "\n")


@pytest.fixture
def extension_file(tmp_path, extension_params):
    out = tmp_path / "ext.json"
    report = run(["extend", "--n", "4", "--f", "1",
                  "--params", extension_params, "--out", str(out)])
    assert report.exit_code == 0
    return str(out)


# -- parameter files ---------------------------------------------------------

def test_read_params(tmp_path):
    path = write(tmp_path / "p.params",
                 "a = 1/2  # trailing comment\n\n# full comment\nb = -i\n")
    assert read_params(path) == {"a": Scalar.parse("1/2"),
                                 "b": Scalar.parse("-i")}


def test_read_params_errors(tmp_path):
    bad_line = write(tmp_path / "a.params", "a = 1\nnonsense\n")
    with pytest.raises(ValueError, match=r"a\.params:2: expected"):
        read_params(bad_line)
    dup = write(tmp_path / "b.params", "a = 1\na = 2\n")
    with pytest.raises(ValueError, match="duplicate parameter"):
        read_params(dup)
    bad_value = write(tmp_path / "c.params", "a = oops\n")
    with pytest.raises(ValueError, match=r"c\.params:1: "):
        read_params(bad_value)
    with pytest.raises(ValueError, match="cannot read"):
        read_params(str(tmp_path / "missing.params"))


# -- subcommands -------------------------------------------------------------

def test_triangular_writes_table(tmp_path):
    out = tmp_path / "t4.json"
    report = run(["triangular", "--n", "4", "--out", str(out)])
    assert report.exit_code == 0
    assert report.verdicts["dim"] == 6
    assert load_table(str(out)) == triangular(4)


def test_extend_to_stdout(extension_params, capsys):
    report = run(["extend", "--n", "4", "--f", "1",
                  "--params", extension_params])
    assert report.exit_code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 7
    assert doc["labels"][-1] == "X"


def test_extend_structured_embeds_table(extension_params, capsys):
    report = run(["extend", "--n", "4", "--f", "1",
                  "--params", extension_params, "--format", "structured"])
    assert report.exit_code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"]["table"]["dim"] == 7


def test_extend_rejects_inadmissible_points(tmp_path, capsys):
    params = write(tmp_path / "bad.params", "a1_23_23 = 1\nb1_12_14 = 1\n")
    report = run(["extend", "--n", "4", "--f", "1", "--params", params])
    assert report.exit_code == 2
    assert "bracket identity fails" in capsys.readouterr().err


def test_extend_rejects_nil_dependent_generators(tmp_path, capsys):
    params = write(tmp_path / "nil.params", "s11 = 1\n")
    out = tmp_path / "nil.json"
    report = run(["extend", "--n", "4", "--f", "1", "--params", params,
                  "--out", str(out)])
    assert report.exit_code == 2
    assert "acts nilpotently" in capsys.readouterr().err
    assert not out.exists()


def test_check_accepts_extension(extension_file):
    report = run(["check", extension_file])
    assert report.exit_code == 0
    assert report.verdicts["leibniz"] is True
    assert report.verdicts["lie"] is False
    assert report.verdicts["solvable"] is True
    assert report.verdicts["nilpotent"] is False


def test_check_refutes_non_leibniz(tmp_path):
    t4 = triangular(4)
    entries = dict(t4.c)
    entries[(0, 1)] = {3: Scalar(2)}
    broken = StructureTable(6, t4.labels, entries)
    path = tmp_path / "broken.json"
    save_table(broken, str(path))
    report = run(["check", str(path)])
    assert report.exit_code == 1
    assert report.verdicts["leibniz"] is False


def test_series_output(tmp_path):
    out = tmp_path / "t4.json"
    run(["triangular", "--n", "4", "--out", str(out)])
    report = run(["series", str(out)])
    assert report.exit_code == 0
    assert report.verdicts["lower_central_dims"] == [6, 3, 1, 0]
    assert report.verdicts["derived_dims"] == [6, 3, 0]


def test_series_and_check_report_the_same_dims(tmp_path, extension_file):
    t5 = triangular(5)
    entries = dict(t5.c)
    entries[(0, 1)] = {4: Scalar(3)}
    paths = [extension_file, str(tmp_path / "t5.json"), str(tmp_path / "bad.json")]
    save_table(t5, paths[1])
    save_table(StructureTable(10, t5.labels, entries), paths[2])
    for path in paths:
        series, check = run(["series", path]).verdicts, run(["check", path]).verdicts
        for key in ("lower_central_dims", "derived_dims"):
            assert series[key] == check[key]
    assert check["leibniz"] is False


def test_derivations_output(tmp_path):
    out = tmp_path / "t4.json"
    run(["triangular", "--n", "4", "--out", str(out)])
    text_report = run(["series", str(out)])
    assert text_report.exit_code == 0
    report = run(["derivations", str(out)])
    assert report.exit_code == 0
    assert report.verdicts["dim"] == 11
    assert "basis" not in report.verdicts
    structured = run(["derivations", str(out), "--format", "structured"])
    assert len(structured.verdicts["basis"]) == 11


def test_structured_derivations_print_the_dense_basis(tmp_path):
    """The basis text, built from the sparse pivot rows, is the dense
    rows' text, here on a non-skew table with fractional and Gaussian
    entries."""
    table = StructureTable(3, ["x", "y", "z"], {(0, 0): {1: Scalar.parse("1/2")},
                                                (0, 1): {2: Scalar.parse("2/3 + i")},
                                                (1, 0): {2: Scalar.parse("-2*i")}})
    path = tmp_path / "t.json"
    save_table(table, str(path))
    basis = run(["derivations", str(path), "--format", "structured"]).verdicts["basis"]
    want = [[str(c) for c in row] for row in derivation_algebra(table).mat.rows]
    assert basis == want
    assert "4/3-2*i" in want[1] and len(want) == 3


def test_structured_output_is_json(tmp_path, capsys):
    out = tmp_path / "t3.json"
    report = run(["triangular", "--n", "3", "--out", str(out),
                  "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "triangular"
    assert doc["exit_code"] == report.exit_code == 0
    assert doc["verdicts"]["dim"] == 3
    assert doc["artifacts"] == [str(out)]


# -- verify ------------------------------------------------------------------

def test_verify_lemma(capsys):
    report = run(["verify", "--lemma", "3.1", "--n", "3"])
    # the linear relations hold, so the witness against the stated
    # products does not change the exit code
    assert report.exit_code == 0
    assert report.verdicts["linear_matches_expected"] is True
    assert report.verdicts["sampling_ok"] is True
    assert report.verdicts["stated_restrictions_complete"] is False
    witness = report.verdicts["witness"]
    assert witness["draw"] == report.verdicts["sample_points"] - 1
    _, extra, point = derive_relations(3, 1).witness
    assert witness["extra"] == str(extra)
    assert witness["point"] == {name: str(v) for name, v in point}
    parsed = {name: Scalar.parse(text) for name, text in witness["point"].items()}
    assert not extra.evaluate(parsed).is_zero()
    closed = run(["verify", "--lemma", "3.1", "--n", "4"])
    assert closed.exit_code == 0
    assert closed.verdicts["stated_restrictions_complete"] is True
    assert closed.verdicts["witness"] is None


def test_verify_theorem():
    report = run(["verify", "--theorem", "3.4", "--n", "4", "--samples", "5"])
    assert report.exit_code == 0
    assert report.verdicts["all_samples_lie"] is True
    assert report.verdicts["samples"] == 5


def test_verify_identity(extension_file):
    report = run(["verify", "--eq", "3", extension_file])
    assert report.exit_code == 0
    assert report.verdicts["corner_annihilation"] is True
    assert (report.verdicts["n"], report.verdicts["f"]) == (4, 1)


def test_verify_mode_selection_errors(extension_file, capsys):
    assert run(["verify", "--n", "4"]).exit_code == 2
    assert "pick exactly one" in capsys.readouterr().err
    assert run(["verify", "--lemma", "3.1", "--theorem", "3.4",
                "--n", "4"]).exit_code == 2
    assert run(["verify", "--lemma", "3.1"]).exit_code == 2
    capsys.readouterr()
    assert run(["verify", "--eq", "3"]).exit_code == 2
    assert "needs an algebra file" in capsys.readouterr().err


UNREAD_VERIFY_OPTIONS = {
    "f with theorem": (["verify", "--theorem", "3.4", "--n", "4", "--f", "3"], "--f"),
    "n with eq": (["verify", "--eq", "3", "{file}", "--n", "4"], "--n"),
    "f with eq": (["verify", "--eq", "3", "{file}", "--f", "1"], "--f"),
    "samples with lemma": (["verify", "--lemma", "3.1", "--n", "3", "--samples", "5"],
                           "--samples"),
    "samples with eq": (["verify", "--eq", "3", "{file}", "--samples", "5"], "--samples"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_VERIFY_OPTIONS))
def test_verify_rejects_options_its_mode_does_not_read(case, extension_file, capsys):
    argv, option = UNREAD_VERIFY_OPTIONS[case]
    argv = [a.format(file=extension_file) for a in argv]
    assert main(argv) == 2
    assert f"{option} does not apply" in capsys.readouterr().err
    assert main(argv + ["--format", "structured"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "verify" and doc["exit_code"] == 2
    assert option in doc["verdicts"]["error"]


def test_verify_defaults_apply_in_the_mode_that_reads_them():
    assert run(["verify", "--lemma", "3.1", "--n", "3"]).verdicts["f"] == 1
    assert run(["verify", "--theorem", "3.4", "--n", "4"]).verdicts["samples"] == 100


@pytest.mark.parametrize("n", [7, 9])
def test_verify_lemma_names_its_own_cap(n, capsys):
    assert main(["verify", "--lemma", "3.2", "--n", str(n)]) == 2
    assert "relation derivation is capped at n = 6" in capsys.readouterr().err


def test_verify_identity_needs_standard_labels(tmp_path, capsys):
    odd = StructureTable(2, ["u", "v"], {})
    path = tmp_path / "odd.json"
    save_table(odd, str(path))
    report = run(["verify", "--eq", "3", str(path)])
    assert report.exit_code == 2
    assert "cannot infer" in capsys.readouterr().err


# -- classification commands -------------------------------------------------

def test_classify_l41(tmp_path):
    params = write(tmp_path / "member.params", "\n".join([
        "a_23_23 = 2", "a_23_14 = 3", "b_23_14 = -3", "a_12_24 = 4",
        "a_34_13 = 5", "b_12_14 = 1", "s_14 = 6"]) + "\n")
    report = run(["classify-l41", "--params", params])
    assert report.exit_code == 0
    assert report.verdicts["form"] == "L1"
    assert report.verdicts["case"] == "1"
    assert report.verdicts["params"] == {"a_12_24": "2", "b_12_14": "1/2",
                                         "s_14": "3/2"}
    assert len(report.verdicts["witness"]) == 7


def test_classify_l41_rejects_lie_members(tmp_path, capsys):
    params = write(tmp_path / "lie.params", "a_12_12 = 1\n")
    report = run(["classify-l41", "--params", params])
    assert report.exit_code == 2
    assert "Lie member" in capsys.readouterr().err


def test_classify_l41_rejects_restricted_points(tmp_path, capsys):
    params = write(tmp_path / "bad.params", "a_12_12 = 1\nb_12_14 = 1\n")
    assert run(["classify-l41", "--params", params]).exit_code == 2
    assert "restriction violated" in capsys.readouterr().err


def test_canonical_command(tmp_path):
    out = tmp_path / "l42.json"
    params = write(tmp_path / "sq.params", "s11 = 1\n")
    report = run(["canonical", "--form", "L42", "--params", params,
                  "--out", str(out)])
    assert report.exit_code == 0
    assert load_table(str(out)).dim == 8


def test_canonical_rejects_skew_points(tmp_path, capsys):
    params = write(tmp_path / "skew.params", "s12 = 1\ns21 = -1\n")
    out = tmp_path / "l42.json"
    report = run(["canonical", "--form", "L42", "--params", params,
                  "--out", str(out)])
    assert report.exit_code == 2
    assert "the table is skew otherwise" in capsys.readouterr().err
    assert not out.exists()


def test_canonical_requires_valid_residual_params(tmp_path, capsys):
    out = tmp_path / "l3.json"
    report = run(["canonical", "--form", "L3", "--out", str(out)])
    assert report.exit_code == 2
    assert "outside" in capsys.readouterr().err


# -- bad input ---------------------------------------------------------------

BAD_INPUTS = {
    "zero denominator": (["extend", "--n", "4", "--f", "1", "--params", "{params}"],
                         "a1_12_12 = 1/0\n"),
    "non-ascii digit": (["extend", "--n", "4", "--f", "1", "--params", "{params}"],
                        "a1_12_12 = \u0663\n"),
    "record not an object": (["check", "{algebra}"],
                             json.dumps({"dim": 1, "labels": ["a"], "brackets": [5]})),
    "term not an object": (["check", "{algebra}"],
                           json.dumps({"dim": 1, "labels": ["a"], "brackets": [
                               {"left": "a", "right": "a", "value": ["x"]}]})),
    "labels not a list": (["check", "{algebra}"],
                          json.dumps({"dim": 1, "labels": 5, "brackets": []})),
    "negative samples": (["verify", "--theorem", "3.4", "--n", "4", "--samples", "-5"], ""),
    "zero samples": (["verify", "--theorem", "3.4", "--n", "4", "--samples", "0"], ""),
    "triangular over the cap": (["triangular", "--n", str(MAX_TRIANGULAR_N + 1),
                                 "--out", "{algebra}"], ""),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_json_object(case, tmp_path, capsys):
    argv, text = BAD_INPUTS[case]
    params = write(tmp_path / "in.params", text)
    algebra = write(tmp_path / "in.json", text)
    argv = [a.format(params=params, algebra=algebra) for a in argv]
    assert main(argv + ["--format", "structured"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, dict)
    assert doc["exit_code"] == 2
    assert doc["command"] == argv[0]
    assert "error" in doc["verdicts"]


# -- main --------------------------------------------------------------------

def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["triangular", "--n", "3", "--out", str(out)]) == 0
    with pytest.raises(SystemExit):
        run(["no-such-command"])
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["check", "--help"], ["series", "-h"], ["--help"]])
def test_help_prints_one_json_object_in_structured_mode(argv, capsys):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: leibniz-lab")
    assert main(argv + ["--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"command": argv[0] if argv[0] in ("check", "series") else None,
                   "verdicts": {"help": text}, "artifacts": [], "exit_code": 0}


# -- one parser for every call -----------------------------------------------

def test_the_shared_parser_keeps_nothing_between_calls(monkeypatch, extension_file, capsys):
    seen = []

    def recording(handler):
        def record(args):
            seen.append(vars(args))
            return handler(args)
        return record

    for name in ("series", "verify"):
        monkeypatch.setitem(cli.HANDLERS, name, recording(cli.HANDLERS[name]))
    calls = [
        (["series", extension_file, "--seed", "5"], 0),
        (["series", extension_file], 0),
        (["verify", "--lemma", "3.1", "--n", "3", "--f", "2"], 0),
        (["verify", "--eq", "3", extension_file], 0),
        (["series", extension_file, "--seed", "9", "--format"], 2),     # usage error
        (["series", extension_file], 0),
        (["verify", "--lemma", "3.2", "--n", "4", "--f", "3", "--help"], 0),
        (["verify", "--eq", "3", extension_file], 0),
    ]
    for argv, code in calls:
        assert main(argv) == code
    capsys.readouterr()
    assert [(s["command"], s["seed"], s.get("f")) for s in seen] == [
        ("series", 5, None), ("series", 0, None), ("verify", 0, 2), ("verify", 0, None),
        ("series", 0, None), ("verify", 0, None)]
    assert seen[-1]["lemma"] is None and seen[-1]["n"] is None
    ran = [argv for argv, code in calls if code == 0 and "--help" not in argv]
    assert seen == [vars(cli.build_parser().parse_args(argv)) for argv in ran]

    def no_parser():
        raise AssertionError("run built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert main(["series", extension_file]) == 0
    capsys.readouterr()
