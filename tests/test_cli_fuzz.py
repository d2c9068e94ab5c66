"""The input contract, fuzzed over algebra files, parameter files and argv.

Whatever the input, the command line exits 0, 1 or 2 and, in structured
mode, prints exactly one JSON object carrying that exit code. Input known to
be malformed exits 2.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_lab.cli import HANDLERS, main

FUZZ = settings(max_examples=60, deadline=None)

LABELS = ("a", "b", "c")
GOOD_COEFS = ("0", "1", "-1", "1/2", "-3/4", "i", "-i", "2-i", "1/3+2/5*i")
BAD_COEFS = ("", " ", "1/0", "2/0*i", "x", "2i", "i*2", "1//2", "1e3", "1.5",
             "٣", 1, 0.5, None, True, ["1"], {"coef": "1"})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def invoke(argv: list) -> int:
    """Run the CLI in structured mode and check the output contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "structured"])
    assert code in (0, 1, 2), (argv, code)
    doc = json.loads(out.getvalue())
    assert isinstance(doc, dict), argv
    assert doc["exit_code"] == code, argv
    return code


# -- algebra documents -------------------------------------------------------

@st.composite
def good_documents(draw):
    dim = draw(st.integers(0, len(LABELS)))
    labels = list(LABELS[:dim])
    pairs = []
    if dim:
        label = st.sampled_from(labels)
        pairs = draw(st.lists(st.tuples(label, label), unique=True, max_size=4))
        term = st.fixed_dictionaries({"coef": st.sampled_from(GOOD_COEFS), "basis": label})
    brackets = [{"left": left, "right": right, "value": draw(st.lists(term, max_size=2))}
                for left, right in pairs]
    return {"dim": dim, "labels": labels, "brackets": brackets}


def _drop(field):
    return lambda doc: {k: v for k, v in doc.items() if k != field}


def _set(field, value):
    return lambda doc: {**doc, field: value}


def _add_record(record):
    return lambda doc: {**doc, "brackets": doc["brackets"] + [record]}


def _term(coef, basis="a"):
    return {"left": "a", "right": "a", "value": [{"coef": coef, "basis": basis}]}


# Each one breaks a well-formed document.
BREAKS = ([_drop(field) for field in ("dim", "labels", "brackets")]
          + [_set("dim", v) for v in (True, "1", 1.0, None, -1, 7)]
          + [_set("labels", v) for v in ("abc", 5, [1, 2], ["a", "a", "a"], None)]
          + [_set("brackets", v) for v in (7, "[]", {"left": "a"})]
          + [_add_record(r) for r in (5, [], "a", {"left": "a", "right": "a"},
                                      {"left": "zz", "right": "a", "value": []},
                                      {"left": "a", "right": "a", "value": "1"},
                                      {"left": "a", "right": "a", "value": ["x"]},
                                      {"left": "a", "right": "a", "value": [{"coef": "1"}]},
                                      _term("1", basis="zz"))]
          + [_add_record(_term(c)) for c in BAD_COEFS])

NOT_A_DOCUMENT = ("", "{", "[1, 2]", "3", "null", '"doc"', "NaN", "{} {}", "٣")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(LABELS + GOOD_COEFS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(("dim", "labels", "brackets", "left", "right", "value",
                         "coef", "basis")), inner, max_size=4),
    max_leaves=12)

# (file text, malformed: True, False, or None when not known)
documents = st.one_of(
    good_documents().map(lambda doc: (json.dumps(doc), False)),
    st.builds(lambda doc, brk: (json.dumps(brk(doc)), True),
              good_documents(), st.sampled_from(BREAKS)),
    st.sampled_from(NOT_A_DOCUMENT).map(lambda text: (text, True)),
    json_values.map(lambda value: (json.dumps(value), None)))

FILE_COMMANDS = (["check"], ["series"], ["derivations"], ["verify", "--eq", "3"])


@FUZZ
@given(documents, st.sampled_from(FILE_COMMANDS))
def test_algebra_documents_hold_the_contract(workdir, document, command):
    text, malformed = document
    path = workdir / "doc.json"
    path.write_text(text, encoding="utf-8")
    code = invoke(command + [str(path)])
    if malformed:
        assert code == 2, text
    elif malformed is False and command[0] != "verify":
        # well-formed tables are analysed; only `verify --eq` needs a layout
        assert code in (0, 1), text


# -- parameter files ---------------------------------------------------------

NAMES = ("a_12_12", "a_23_23", "a_12_24", "b_12_14", "s_14",
         "a1_12_12", "a1_23_23", "a1_34_34", "s11")
BAD_LINES = ("nonsense", "= 1", "a_12_12 =", "a_12_12 = 1/0", "a_12_12 = oops",
             "a_12_12 = ٣", "a_12_12 == 1", "a_12_12 = 1 2")

lines = st.one_of(
    st.tuples(st.sampled_from(NAMES),
              st.sampled_from(GOOD_COEFS)).map(lambda nv: (f"{nv[0]} = {nv[1]}", nv[0])),
    st.sampled_from(("", "# comment", "   ", "s_14 = 1  # trailing")).map(
        lambda line: (line, "s_14" if line.startswith("s_14") else None)),
    st.sampled_from(BAD_LINES).map(lambda line: (line, "")))

PARAMS_COMMANDS = (["extend", "--n", "4", "--f", "1", "--params"],
                   ["classify-l41", "--params"],
                   ["canonical", "--form", "L1", "--out", "{out}", "--params"])


@FUZZ
@given(st.lists(lines, max_size=5), st.sampled_from(PARAMS_COMMANDS))
def test_parameter_files_hold_the_contract(workdir, file_lines, command):
    names = [name for _, name in file_lines if name is not None]
    malformed = "" in names or len(set(names)) != len(names)
    path = workdir / "in.params"
    path.write_text("\n".join(line for line, _ in file_lines) + "\n", encoding="utf-8")
    argv = [a.format(out=workdir / "out.json") for a in command] + [str(path)]
    code = invoke(argv)
    if malformed:
        assert code == 2, file_lines


# -- argv --------------------------------------------------------------------

TOKENS = tuple(HANDLERS) + (
    "--n", "--f", "--params", "--out", "--lemma", "--theorem", "--eq", "--samples",
    "--seed", "--form", "-1", "0", "2", "3", "x", "1.5", "3.1", "3.2", "3.4", "L1",
    "L42", "{table}", "{params}", "{missing}", "{dir}", "")


@FUZZ
@given(st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=8),
    st.builds(lambda cmd, rest: [cmd] + rest, st.sampled_from(tuple(HANDLERS)),
              st.lists(st.sampled_from(TOKENS), max_size=8))))
def test_argv_holds_the_contract(workdir, tokens):
    table = workdir / "argv_table.json"
    table.write_text(json.dumps({"dim": 1, "labels": ["a"], "brackets": []}),
                     encoding="utf-8")
    params = workdir / "argv.params"
    params.write_text("a_12_12 = 1\n", encoding="utf-8")
    places = {"table": table, "params": params, "missing": workdir / "missing",
              "dir": workdir}
    argv = [tok.format(**places) for tok in tokens]
    code = invoke(argv)
    if not argv or argv[0] not in HANDLERS:
        assert code == 2, argv
