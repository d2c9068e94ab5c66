"""Byte identity of the scalar kernels' outputs on a fixed comparison set.

The digest below is the sha256 of `golden_text()` as the code computed it
before the kernels moved to integer arithmetic.  The text keeps every
order the program produces (bracket rows, their components, residues and
the components of each residue), so a change that only reorders output
fails too.  The inputs come from the package's own seeded samplers
(`sample_extension_specs`, `sample_l41_params`); a change to one of those
samplers changes the text, and then the digest must be recomputed on the
parent of that change.

The second digest pins the `repr` of every `derive_relations` report on the
`relations` benchmark grid for seeds 1 and 3.  It was computed when the
500-point sampler gave way to the capped witness search: `sample_points`
became the number of points that search draws, and `witness` was added.
Before that change the digest had been unchanged since the sampler drew
its points from one sparse RREF per factor-choice pattern, and every
field but those two reads as it did then.

The third digest pins outputs of the sparse eliminator that neither of the
others reaches, as computed before its back-substitution used a column
index: the derivation algebras of T(4)..T(8), `verify_max_extension_is_lie`
at n = 4 and 5 with and without `corrupt`, and `linear_forms_in_span` on
the residues of each generic extension of the grid, in the order of its
output and of each form's terms.

The fourth digest pins the bytes that in-process `cli.main` prints with
`--format structured`: tables written by `triangular`, their `check`,
`series` and `derivations` reports, `extend` and `classify-l41` on fixed
parameter files that mix integer, fractional and Gaussian values, and
`verify --theorem`.  The temporary directory is replaced by a fixed token.
It was computed before coefficients were read and printed without Fraction
and before the series were built from eliminator rows.

The fifth digest pins the verdicts on `golden_text`'s pool, its integer and
Gaussian transported copies, and one spoiled and one skew-spoiled copy of
each: `is_leibniz`, `is_lie`, `series_signature` and every row coefficient
of both series.  It was computed before the series terms were built as
fraction-free integer rows and before `is_lie` tested Jacobiators.

The sixth digest pins the structured stdout of the commands the fourth
leaves out: `verify --lemma` at (3, 1) and (4, 2), `verify --eq 3` on the
fourth digest's `extend` output, and `canonical` at one valid point of each
form, with the file each writes.  It was computed when `verify --lemma`
gained the verdicts `stated_restrictions_complete` and `witness` and its
`sample_points` became the witness search's draws; the rest of its bytes
read as they did before `derive_relations` split the residual quadratics
on one span of the stated products, and before `extend` and `canonical`
rejected nil-dependent and skew points.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

from leibniz_lab.algebra import (BasisChange, StructureTable, bracket,
                                 change_of_basis, derivation_algebra,
                                 derived_series, is_leibniz, is_lie,
                                 leibniz_residues, lower_central_series,
                                 mult_matrix, series_signature)
from leibniz_lab.cli import main
from leibniz_lab.classify import (CanonicalForm, build_canonical, build_L41,
                                  classify_L41, sample_l41_params)
from leibniz_lab.extensions import (build_extension, derive_relations,
                                    generic_extension, linear_forms_in_span,
                                    sample_extension_specs,
                                    verify_max_extension_is_lie)
from leibniz_lab.linalg import Matrix
from leibniz_lab.scalars import ONE, ZERO, Scalar
from leibniz_lab.triangular import triangular

GOLDEN_SHA256 = "d2c49588cb6b61a667ac36b3bef86efd07cae6d8f684fb1ec8199cb99aa93108"
RELATIONS_SHA256 = "278d5e847c620d743bf8afbbbb09cd860ca2701a0865d298d81155c8704482cf"
ELIMINATOR_SHA256 = "fb2060e233e75ab882d297036de9e1f31717edc928474000803e75b03bc08a13"
CLI_SHA256 = "911ef958d35e4880f800a49090da3483f317ca3455a930d20455e9c04c6a85b5"
VERDICTS_SHA256 = "5bba4c20de712bcd513518f35b9fd820387ad8a7f592e3cea259f1a89d64151b"
COMMANDS_SHA256 = "7de74ba16dbf49eff47d01dbcce5204546a536beb0b03a6d19855bc3e8c61fed"
RELATION_GRID = ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2))


def table_text(t: StructureTable) -> str:
    return repr([(key, [(k, str(c)) for k, c in row.items()]) for key, row in t.c.items()])


def rows_text(rows) -> str:
    return repr([[str(c) for c in row] for row in rows])


def integer_change(dim: int, rng: random.Random) -> BasisChange:
    while True:
        rows = [[Scalar(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisChange(Matrix(rows, ncols=dim))
        except ValueError:
            continue


def gaussian_change(dim: int, rng: random.Random) -> BasisChange:
    while True:
        rows = [[Scalar(Fraction(rng.randint(-1, 1), rng.choice((1, 1, 2))),
                        rng.choice((0, 0, 0, 1)))
                 for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisChange(Matrix(rows, ncols=dim))
        except ValueError:
            continue


def spoiled(t: StructureTable, rng: random.Random) -> StructureTable:
    entries = {key: dict(row) for key, row in t.c.items()}
    key = rng.choice(sorted(entries))
    k = rng.choice(sorted(entries[key]))
    entries[key][k] = entries[key][k] + Scalar(Fraction(1, rng.choice((1, 5, 7))),
                                               rng.choice((0, 1)))
    return StructureTable(t.dim, t.labels, entries)


def skew_spoiled(t: StructureTable, rng: random.Random) -> StructureTable:
    """c added to [e_i, e_j] and -c to [e_j, e_i], i != j: a skew table stays skew."""
    entries = {key: dict(row) for key, row in t.c.items()}
    i, j = rng.sample(range(t.dim), 2)
    k = rng.randrange(t.dim)
    c = Scalar(Fraction(rng.choice((1, -2)), rng.choice((1, 3))), rng.choice((0, 1)))
    for key, v in (((i, j), c), ((j, i), -c)):
        row = entries.setdefault(key, {})
        row[k] = row.get(k, ZERO) + v
    return StructureTable(t.dim, t.labels, entries)


def pool() -> list:
    S = Scalar
    tables = [
        ("T(4)", triangular(4)),
        ("T(5)", triangular(5)),
        ("L1", build_canonical(CanonicalForm("L1", {"a_12_24": S(2), "b_12_14": ONE,
                                                    "s_14": S(3)}))),
        ("L2", build_canonical(CanonicalForm("L2", {"a_23_14": S(2), "b_23_14": S(-1),
                                                    "s_14": S(Fraction(1, 2))}))),
        ("L3", build_canonical(CanonicalForm("L3", {"a_23_23": S(2, 1)}))),
        ("L42", build_canonical(CanonicalForm("L42", {"s11": ONE, "s12": S(2),
                                                      "s21": S(-1), "s22": S(0, 3)}))),
    ]
    for f in (1, 2, 3):
        for k, spec in enumerate(sample_extension_specs(4, f, 1, seed=70 + f)):
            tables.append((f"member(4,{f})#{k}", build_extension(spec, verify=False)))
    return tables


def analysis_lines(name: str, t: StructureTable, rng: random.Random) -> list:
    lines = [f"{name} table {table_text(t)}",
             f"{name} residues {leibniz_residues(t)!r}",
             f"{name} signature {series_signature(t)!r}"]
    bad = spoiled(t, rng)
    lines.append(f"{name} spoiled residues {leibniz_residues(bad)!r}")
    x = [Scalar(rng.randint(-2, 2), rng.choice((0, 1))) for _ in range(t.dim)]
    y = [Scalar(Fraction(rng.randint(-2, 2), 3)) for _ in range(t.dim)]
    lines.append(f"{name} bracket {[str(c) for c in bracket(t, x, y)]!r}")
    for side in ("left", "right"):
        lines.append(f"{name} {side} {rows_text(mult_matrix(t, x, side).rows)}")
    return lines


def golden_text() -> str:
    rng = random.Random(2024)
    lines = []
    for name, t in pool():
        lines += analysis_lines(name, t, rng)
        for kind, change in (("int", integer_change), ("gauss", gaussian_change)):
            bc = change(t.dim, rng)
            lines += analysis_lines(f"{name} {kind}", change_of_basis(t, bc), rng)
    for k, p in enumerate(sample_l41_params(40, seed=41)):
        got = classify_L41(p)
        source = build_L41(p)
        lines.append(f"L41#{k} source {table_text(source)}")
        lines.append(f"L41#{k} case {got.case} {got.form.id} "
                     f"{sorted((n, str(v)) for n, v in got.form.params.items())!r}")
        lines.append(f"L41#{k} witness {rows_text(got.witness.p.rows)}")
        lines.append(f"L41#{k} canonical {table_text(build_canonical(got.form))}")
        lines.append(f"L41#{k} moved {table_text(change_of_basis(source, got.witness))}")
    return "\n".join(lines) + "\n"


def test_outputs_match_the_golden_digest():
    assert hashlib.sha256(golden_text().encode()).hexdigest() == GOLDEN_SHA256


def relations_text() -> str:
    return "".join(f"{derive_relations(n, f, seed=seed)!r}\n"
                   for seed in (1, 3) for n, f in RELATION_GRID)


def test_relation_reports_match_the_golden_digest():
    assert hashlib.sha256(relations_text().encode()).hexdigest() == RELATIONS_SHA256


def eliminator_text() -> str:
    lines = [f"T({n}) derivations {rows_text(derivation_algebra(triangular(n)).mat.rows)}"
             for n in range(4, 9)]
    lines += [repr(verify_max_extension_is_lie(n, seed=2, samples=10, corrupt=corrupt))
              for n in (4, 5) for corrupt in (False, True)]
    for n, f in RELATION_GRID:
        polys = [c for _, comps in leibniz_residues(generic_extension(n, f))
                 for c in comps.values()]
        forms = [[(m, str(c)) for m, c in p.terms.items()]
                 for p in linear_forms_in_span(polys)]
        lines.append(f"({n}, {f}) linear forms {forms!r}")
    return "\n".join(lines) + "\n"


def test_eliminator_outputs_match_the_golden_digest():
    assert hashlib.sha256(eliminator_text().encode()).hexdigest() == ELIMINATOR_SHA256


EXTEND_PARAMS = """# fractional and Gaussian values next to plain integers
a1_12_12 = 1/2
a1_23_23 = 3/2
a1_34_34 = -2
s11 = -3/4+i
"""

CLASSIFY_PARAMS = """a_23_23 = 2
a_23_14 = 3
b_23_14 = -3
a_12_24 = 04
a_34_13 = 5/3
b_12_14 = -1/2*i
s_14 = 6
"""


def cli_text(tmp) -> str:
    """stdout of each command, the tmp directory replaced by "<tmp>"."""
    (tmp / "ext.params").write_text(EXTEND_PARAMS, encoding="utf-8")
    (tmp / "l41.params").write_text(CLASSIFY_PARAMS, encoding="utf-8")
    commands = []
    for n in (4, 5, 6):
        path = str(tmp / f"t{n}.json")
        commands.append(["triangular", "--n", str(n), "--out", path])
        commands += [[cmd, path] for cmd in ("check", "series", "derivations")]
    commands += [["extend", "--n", "4", "--f", "1", "--params", str(tmp / "ext.params")],
                 ["classify-l41", "--params", str(tmp / "l41.params")],
                 ["verify", "--theorem", "3.4", "--n", "4", "--samples", "4"]]
    out = io.StringIO()
    with redirect_stdout(out):
        for argv in commands:
            print(f"exit {main(argv + ['--format', 'structured'])}")
    return out.getvalue().replace(str(tmp), "<tmp>")


def test_cli_outputs_match_the_golden_digest(tmp_path):
    assert hashlib.sha256(cli_text(tmp_path).encode()).hexdigest() == CLI_SHA256


CANONICAL_PARAMS = {
    "L1": "a_12_24 = 2\nb_12_14 = 1\ns_14 = 3\n",
    "L2": "a_23_14 = 2\nb_23_14 = -1\ns_14 = 1/2\n",
    "L3": "a_23_23 = 2+i\n",
    "L42": "s11 = 1\ns12 = 2\ns21 = -1\ns22 = 3*i\n",
}


def commands_text(tmp) -> str:
    """stdout of each command and the file it writes, the tmp directory
    replaced by "<tmp>"."""
    (tmp / "ext.params").write_text(EXTEND_PARAMS, encoding="utf-8")
    ext = tmp / "ext.json"
    commands = [(["verify", "--lemma", "3.1", "--n", "3"], None),
                (["verify", "--lemma", "3.2", "--n", "4", "--f", "2"], None),
                (["extend", "--n", "4", "--f", "1", "--params", str(tmp / "ext.params"),
                  "--out", str(ext)], ext),
                (["verify", "--eq", "3", str(ext)], None)]
    for form, text in CANONICAL_PARAMS.items():
        (tmp / f"{form}.params").write_text(text, encoding="utf-8")
        out = tmp / f"{form}.json"
        commands.append((["canonical", "--form", form, "--params",
                          str(tmp / f"{form}.params"), "--out", str(out)], out))
    out = io.StringIO()
    with redirect_stdout(out):
        for argv, written in commands:
            print(f"exit {main(argv + ['--format', 'structured'])}")
            if written is not None:
                print(written.read_text(encoding="utf-8"))
    return out.getvalue().replace(str(tmp), "<tmp>")


def test_command_outputs_match_the_golden_digest(tmp_path):
    assert hashlib.sha256(commands_text(tmp_path).encode()).hexdigest() == COMMANDS_SHA256


def verdict_lines(name: str, t: StructureTable) -> list:
    lines = [f"{name} verdicts {is_leibniz(t)} {is_lie(t)} {series_signature(t)!r}"]
    for kind, series in (("lower", lower_central_series(t)), ("derived", derived_series(t))):
        lines.append(f"{name} {kind} {[rows_text(s.mat.rows) for s in series]!r}")
    return lines


def verdicts_text() -> str:
    rng = random.Random(2025)
    lines = []
    for name, t in pool():
        copies = [(name, t)] + [(f"{name} {kind}", change_of_basis(t, change(t.dim, rng)))
                                for kind, change in (("int", integer_change),
                                                     ("gauss", gaussian_change))]
        for label, c in copies:
            lines += verdict_lines(label, c)
            lines += verdict_lines(f"{label} spoiled", spoiled(c, rng))
            lines += verdict_lines(f"{label} skew-spoiled", skew_spoiled(c, rng))
    return "\n".join(lines) + "\n"


def test_verdicts_match_the_golden_digest():
    assert hashlib.sha256(verdicts_text().encode()).hexdigest() == VERDICTS_SHA256
