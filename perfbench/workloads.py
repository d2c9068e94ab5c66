"""Inputs, operations and independent checks of the three workloads.

Every input is made here from the run's seed. The program's own samplers
are never used to make inputs, so a change to a sampler or to the
eliminator cannot change what is measured. The facts the outputs are
checked against (T(n) and the L41 tables, the relation counts, the series
and derivation dimensions, the classification branches) are built here
too, in plain `fractions.Fraction` arithmetic, and not asked of the program.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

MODULES = ("scalars", "linalg", "symsolve", "algebra", "triangular",
           "extensions", "classify", "cli")

WORKLOADS = ("relations", "transport", "session")

RELATION_GRID = ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2))

# transport: passes over the fixed pool, so every run times the same mix
TRANSPORT_PASSES = 3
TRANSPORT_ENTRY = 3          # basis-change entries drawn from [-3, 3]

# session: L41 points (a multiple of the four branches), T(n) sizes,
# and (n, samples) of the Theorem 3.4 runs
SESSION_POINTS = 40
SESSION_NS = (4, 5, 6, 7, 8)
SESSION_THEOREM = ((4, 8), (5, 4))

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def load_program() -> dict:
    """The program's modules by short name (the package must be importable)."""
    return {m: importlib.import_module(f"leibniz_lab.{m}") for m in MODULES}


def memo_caches(lab: dict) -> list:
    """Every memo cache the program keeps, taken before any rebinding."""
    return [obj for mod in lab.values() for obj in vars(mod).values()
            if callable(obj) and hasattr(obj, "cache_clear")]


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    `keep`, when set, runs on the output right after the timed call, to
    keep what the call wrote before a later round overwrites it. `check`
    returns None when the output is right, else the reason it is not.
    `known_fault` names a fault of the program that makes this operation
    fail today; such a failure leaves the run correct.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    fresh: bool = False
    known_fault: Optional[str] = None
    keep: Optional[Callable[[object], object]] = None


@dataclass
class Workload:
    ops: list
    coefficients: Callable[[list], list]


# ---- exact Q(i) values as (re, im) Fraction pairs ---------------------------

def g_add(x: tuple, y: tuple) -> tuple:
    return (x[0] + y[0], x[1] + y[1])


def g_neg(x: tuple) -> tuple:
    return (-x[0], -x[1])


def format_gaussian(z: tuple) -> str:
    """Text in the program's parameter-file syntax: `p/q`, `p/q+r/s*i`."""
    re_, im = z
    if not im:
        return str(re_)
    return f"{re_}{'-' if im < 0 else '+'}{abs(im)}*i"


def parse_gaussian(text: str) -> tuple:
    """Read a coefficient the program wrote: `3`, `-1/2`, `i`, `1-3/2*i`."""
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re_txt, im_txt = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    im_txt = im_txt.rstrip("*")
    if im_txt in ("", "+", "-"):
        im_txt += "1"
    return (Fraction(re_txt), Fraction(im_txt))


def draw(rng: random.Random, nonzero: bool = False) -> tuple:
    """A small Gaussian rational; an imaginary part one draw in four."""
    while True:
        z = (Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))),
             Fraction(rng.randint(-3, 3)) if rng.random() < 0.25 else Fraction(0))
        if not nonzero or z != ZERO:
            return z


# ---- reference tables, built apart from the program -------------------------
# A table is {(left label, right label): {basis label: (re, im)}}, zeros dropped.

def _put(table: dict, left: str, right: str, basis: str, value: tuple) -> None:
    row = table.setdefault((left, right), {})
    total = g_add(row.get(basis, ZERO), value)
    if total == ZERO:
        row.pop(basis, None)
        if not row:
            del table[(left, right)]
    else:
        row[basis] = total


def triangular_pairs(n: int) -> list:
    """N_ij basis of T(n), ordered by gap j - i, then by i."""
    return [(i, i + g) for g in range(1, n) for i in range(1, n - g + 1)]


def reference_triangular(n: int) -> tuple:
    """(labels, table) of T(n): [N_ij, N_kl] = d_jk N_il - d_il N_kj."""
    order = triangular_pairs(n)
    name = {p: f"N{p[0]}{p[1]}" for p in order}
    table: dict = {}
    for (i, j) in order:
        for (k, l) in order:
            if j == k:
                _put(table, name[(i, j)], name[(k, l)], name[(i, l)], ONE)
            if i == l:
                _put(table, name[(i, j)], name[(k, l)], name[(k, j)], g_neg(ONE))
    return [name[p] for p in order], table


L41_NAMES = ("a_12_12", "a_12_24", "b_12_14", "a_23_23", "a_23_14",
             "b_23_14", "a_34_13", "b_34_14", "s_14")

# classify-l41 case and canonical form of each branch of the L41 family, in
# the order l41_point numbers them: a12 = 0, a23 = 0, a23 = -a12, generic
L41_BRANCHES = (("1", "L1"), ("2.1", "L2"), ("2.2.1", "L1"), ("2.2.2", "L3"))


def l41_point(branch: int, rng: random.Random) -> dict:
    """A valid non-skew point of the one-generator n = 4 family.

    The three products a12*b_12_14, a23*(a_23_14 + b_23_14) and
    (a12 + a23)*b_34_14 vanish, (a12, a23) != (0, 0), and the point is off
    the skew locus of its branch.
    """
    p = {k: ZERO for k in L41_NAMES}
    p["a_12_24"] = draw(rng)
    p["a_34_13"] = draw(rng)
    p["a_23_14"] = draw(rng)
    if branch == 0:                                   # a12 = 0
        p["a_23_23"] = draw(rng, nonzero=True)
        p["b_23_14"] = g_neg(p["a_23_14"])
        p["b_12_14"] = draw(rng, nonzero=True)
        p["s_14"] = draw(rng)
    elif branch == 1:                                 # a23 = 0
        p["a_12_12"] = draw(rng, nonzero=True)
        p["b_23_14"] = draw(rng)
        p["s_14"] = draw(rng, nonzero=True)
    elif branch == 2:                                 # a23 = -a12
        p["a_12_12"] = draw(rng, nonzero=True)
        p["a_23_23"] = g_neg(p["a_12_12"])
        p["b_23_14"] = g_neg(p["a_23_14"])
        p["b_34_14"] = draw(rng, nonzero=True)
        p["s_14"] = draw(rng)
    else:                                             # generic diagonal
        p["a_12_12"] = draw(rng, nonzero=True)
        while True:
            p["a_23_23"] = draw(rng, nonzero=True)
            if g_add(p["a_23_23"], p["a_12_12"]) != ZERO:
                break
        p["b_23_14"] = g_neg(p["a_23_14"])
        p["s_14"] = draw(rng, nonzero=True)
    return p


def extension_params(p: dict) -> dict:
    """The same point in the names of the reduced (4, 1) extension family."""
    d1, d2 = p["a_12_12"], p["a_23_23"]
    return {"a1_12_12": d1, "a1_23_23": d2, "a1_34_34": g_neg(g_add(d1, d2)),
            "a1_12_24": p["a_12_24"], "a1_23_14": p["a_23_14"],
            "a1_34_13": p["a_34_13"], "b1_12_14": p["b_12_14"],
            "b1_23_14": p["b_23_14"], "b1_34_14": p["b_34_14"],
            "s11": p["s_14"]}


def reference_l41(p: dict) -> tuple:
    """(labels, table) of the 7-dimensional member at an L41 point.

    X acts on N_ij by the sum of the superdiagonal weights d1, d2, d3 it
    spans (d3 = -(d1 + d2)), plus the off-diagonal entries N12 -> N24,
    N23 -> N14 and N34 -> N13; the left action is minus the right one except
    for the corner coefficients b_*_14, and [X, X] = s_14 N14.
    """
    labels, table = reference_triangular(4)
    d = (p["a_12_12"], p["a_23_23"])
    d = d + (g_neg(g_add(*d)),)
    for (i, j) in triangular_pairs(4):
        row = f"N{i}{j}"
        weight = ZERO
        for k in range(i, j):
            weight = g_add(weight, d[k - 1])
        _put(table, row, "X", row, weight)
        _put(table, "X", row, row, g_neg(weight))
    for row, col, name in (("N12", "N24", "a_12_24"), ("N34", "N13", "a_34_13")):
        _put(table, row, "X", col, p[name])
        _put(table, "X", row, col, g_neg(p[name]))
    _put(table, "N23", "X", "N14", p["a_23_14"])
    for row, name in (("N12", "b_12_14"), ("N23", "b_23_14"), ("N34", "b_34_14")):
        _put(table, "X", row, "N14", p[name])
    _put(table, "X", "X", "N14", p["s_14"])
    return labels + ["X"], table


def table_of_document(doc: dict) -> tuple:
    """(labels, table) read from an algebra file the program wrote."""
    table: dict = {}
    for rec in doc["brackets"]:
        for term in rec["value"]:
            _put(table, rec["left"], rec["right"], term["basis"],
                 parse_gaussian(term["coef"]))
    return list(doc["labels"]), table


def lower_central_dims(n: int) -> list:
    """dim of the k-th lower central term of T(n): (n-k)(n-k+1)/2."""
    return [(n - k) * (n - k + 1) // 2 for k in range(1, n + 1)]


def derived_dims(n: int) -> list:
    """The derived terms of T(n) hold the pairs of gap >= 1, 2, 4, 8, ..."""
    dims, gap = [], 1
    while gap < n:
        dims.append((n - gap) * (n - gap + 1) // 2)
        gap *= 2
    return dims + [0]


def derivation_dim(n: int) -> int:
    return (n * n + 3 * n - 6) // 2


def forced_linear_count(n: int, f: int) -> int:
    """f(d^2 - (n-1)) + f^2 (d-1) forced linear relations, d = n(n-1)/2."""
    d = n * (n - 1) // 2
    return f * (d * d - (n - 1)) + f * f * (d - 1)


def integer_det(rows: list) -> Fraction:
    """Exact determinant of an integer matrix, by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


# ---- relations --------------------------------------------------------------

def relations(lab: dict, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    ext = lab["extensions"]
    grid = RELATION_GRID[:1] if tiny else RELATION_GRID

    def op(n: int, f: int) -> Op:
        def check(rep) -> Optional[str]:
            if (rep.n, rep.f) != (n, f):
                return f"report is for ({rep.n}, {rep.f})"
            if not rep.ok:
                return "derived relations do not match the expected shape"
            if not rep.sampling_ok:
                return "a sampled point left the stated quadratics"
            want = forced_linear_count(n, f)
            if len(rep.derived_linear) != want:
                return f"{len(rep.derived_linear)} forced linear relations, want {want}"
            return None
        return Op(f"derive_relations({n},{f})",
                  lambda: ext.derive_relations(n, f, seed=seed), check, fresh=True)

    def coefficients(outputs: list) -> list:
        return [c for rep in outputs if not isinstance(rep, Exception)
                for q in rep.quadratic_residuals + rep.derived_linear
                for c in q.terms.values()]

    return Workload([op(n, f) for n, f in grid], coefficients)


# ---- transport --------------------------------------------------------------

def transport_pool(lab: dict) -> list:
    """(name, table, is Lie) for the fixed pool of 6- to 8-dimensional tables."""
    S, Q = lab["scalars"].Scalar, Fraction
    cl, ext = lab["classify"], lab["extensions"]
    member = {"a1_12_12": S(2), "a1_23_23": S(3), "a1_34_34": S(-5),
              "a1_12_24": S(1), "a1_23_14": S(Q(1, 2)), "b1_23_14": S(Q(-1, 2)),
              "a1_34_13": S(-1), "s11": S(1)}
    form = cl.CanonicalForm
    return [
        ("T(4)", lab["triangular"].triangular(4), True),
        ("member(4,1)", ext.build_extension(ext.ExtensionSpec(4, 1, member)), False),
        ("L1", cl.build_canonical(form("L1", {"a_12_24": S(2), "b_12_14": S(1),
                                              "s_14": S(3)})), False),
        ("L2", cl.build_canonical(form("L2", {"a_23_14": S(2), "b_23_14": S(-1),
                                              "s_14": S(Q(1, 2))})), False),
        ("L3", cl.build_canonical(form("L3", {"a_23_23": S(2)})), False),
        ("L42", cl.build_canonical(form("L42", {"s11": S(1), "s12": S(2),
                                                "s21": S(-1), "s22": S(3)})), False),
    ]


def random_basis_change(dim: int, rng: random.Random) -> list:
    """Small-integer rows with a nonzero determinant."""
    while True:
        rows = [[rng.randint(-TRANSPORT_ENTRY, TRANSPORT_ENTRY) for _ in range(dim)]
                for _ in range(dim)]
        if integer_det(rows):
            return rows


def transport(lab: dict, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    al, la, S = lab["algebra"], lab["linalg"], lab["scalars"].Scalar
    pool = transport_pool(lab)[:1] if tiny else transport_pool(lab)
    rng = random.Random(seed)
    order = []
    for _ in range(TRANSPORT_PASSES):
        order.extend(rng.sample(range(len(pool)), len(pool)))
    source_facts: dict = {}

    def facts(k: int) -> tuple:
        """Verdicts of a pool table, computed once and only for checking."""
        if k not in source_facts:
            name, table, lie = pool[k]
            source_facts[k] = (al.is_leibniz(table), al.is_lie(table),
                               al.series_signature(table))
        return source_facts[k]

    def op(k: int, rows: list) -> Op:
        name, source, lie = pool[k]
        matrix = la.Matrix([[S(x) for x in row] for row in rows])
        carried_back: list = []     # outputs already shown to round-trip

        def call():
            bc = al.BasisChange(matrix)
            moved = al.change_of_basis(source, bc)
            return bc, moved, (al.is_leibniz(moved), al.is_lie(moved),
                               al.series_signature(moved))

        def check(out) -> Optional[str]:
            bc, moved, verdicts = out
            src = facts(k)
            if src[:2] != (True, lie):
                return f"source {name} reads leibniz={src[0]} lie={src[1]}"
            if name == "T(4)" and list(src[2][0]) != lower_central_dims(4):
                return f"T(4) lower central dims {src[2][0]}"
            if verdicts != src:
                return f"verdicts {verdicts} differ from the source's {src}"
            if any(moved.same_brackets(t) for t in carried_back):
                return None
            back = al.change_of_basis(moved, al.BasisChange(bc.p_inv))
            if not back.same_brackets(source):
                return "the inverse change does not carry the table back"
            carried_back.append(moved)
            return None
        return Op(f"transport {name}", call, check)

    ops = [op(k, random_basis_change(pool[k][1].dim, rng)) for k in order]

    def coefficients(outputs: list) -> list:
        return [c for out in outputs if not isinstance(out, Exception)
                for row in out[1].c.values() for c in row.values()]

    return Workload(ops, coefficients)


# ---- session ----------------------------------------------------------------

def run_cli(cli, argv: list) -> tuple:
    """(exit code, stdout) of one in-process `leibniz-lab` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def one_object(stdout: str) -> Optional[dict]:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def expect_ok(check: Callable[[dict], Optional[str]], table: Optional[tuple] = None):
    """Exit 0 with one JSON object whose verdicts pass `check`; with `table`,
    the algebra file the command wrote (kept as the output's third item)
    must equal it."""
    def run(out) -> Optional[str]:
        code, stdout = out[:2]
        doc = one_object(stdout)
        if doc is None:
            return f"exit {code} without one JSON object on stdout"
        if code != 0 or doc.get("exit_code") != 0:
            return f"exit {code}: {doc.get('verdicts')}"
        reason = check(doc["verdicts"])
        if reason is None and table is not None:
            reason = "no file written" if out[2] is None else same_table(out[2], table)
        return reason
    return run


def expect_rejected(out) -> Optional[str]:
    """Bad input: exit 2 with one JSON object saying so."""
    code, stdout = out[:2]
    doc = one_object(stdout)
    if code != 2 or doc is None or doc.get("exit_code") != 2:
        return f"exit {code}, {'one' if doc else 'no'} JSON object"
    return None


def same_table(text: str, want: tuple) -> Optional[str]:
    got = table_of_document(json.loads(text))
    if got[0] != want[0]:
        return f"labels {got[0]}"
    if got[1] != want[1]:
        diff = sorted(k for k in set(got[1]) | set(want[1])
                      if got[1].get(k) != want[1].get(k))
        return f"brackets differ at {diff[:3]}"
    return None


def write_params(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {format_gaussian(v)}\n"
                            for k, v in values.items() if v != ZERO),
                    encoding="utf-8")


def session(lab: dict, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    cli = lab["cli"]
    rng = random.Random(seed)
    points = 4 if tiny else SESSION_POINTS
    ns = SESSION_NS[:1] if tiny else SESSION_NS
    theorem = ((4, 2),) if tiny else SESSION_THEOREM
    common = ["--format", "structured", "--seed", str(seed)]
    ops: list = []
    drawn: list = []

    def add(name: str, argv: list, check, known_fault=None, writes=None) -> None:
        keep = None
        if writes is not None:
            def keep(out):
                try:
                    return out + (writes.read_text(encoding="utf-8"),)
                except OSError:
                    return out + (None,)
        ops.append(Op(name, lambda: run_cli(cli, argv + common), check,
                      fresh=True, known_fault=known_fault, keep=keep))

    for k in range(points):
        branch = k % len(L41_BRANCHES)
        case, form = L41_BRANCHES[branch]
        point = l41_point(branch, rng)
        drawn.extend(point.values())
        ext_params = workdir / f"ext{k}.params"
        l41_params = workdir / f"l41_{k}.params"
        table = workdir / f"ext{k}.json"
        write_params(ext_params, extension_params(point))
        write_params(l41_params, point)
        want = reference_l41(point)

        def extended(v):
            if v.get("dim") != 7 or v.get("leibniz") is not True:
                return f"verdicts {v}"
            return None

        def checked(v):
            if (v["dim"], v["leibniz"], v["lie"], v["nilpotent"], v["solvable"]) \
                    != (7, True, False, False, True):
                return f"verdicts {v}"
            return None

        def series(v):
            lc, dv = v["lower_central_dims"], v["derived_dims"]
            if lc[0] != 7 or dv[0] != 7 or dv[-1] != 0 or lc[-1] == 0:
                return f"series {lc} {dv} of a solvable, non-nilpotent member"
            return None

        def classified(v, case=case, form=form):
            if (v["case"], v["form"]) != (case, form):
                return f"case {v['case']} form {v['form']}, want {case} {form}"
            return None

        add("extend", ["extend", "--n", "4", "--f", "1", "--params",
                       str(ext_params), "--out", str(table)],
            expect_ok(extended, want), writes=table)
        add("check", ["check", str(table)], expect_ok(checked))
        add("series", ["series", str(table)], expect_ok(series))
        add("verify-eq3", ["verify", "--eq", "3", str(table)], expect_ok(
            lambda v: None if v["corner_annihilation"] is True else f"verdicts {v}"))
        add("classify-l41", ["classify-l41", "--params", str(l41_params)],
            expect_ok(classified))

    for n in ns:
        table = workdir / f"t{n}.json"
        want = reference_triangular(n)
        dims = (lower_central_dims(n), derived_dims(n))

        def checked(v, n=n, dims=dims):
            flags = (v["leibniz"], v["lie"], v["nilpotent"], v["solvable"])
            if flags != (True,) * 4 or (v["lower_central_dims"], v["derived_dims"]) != dims:
                return f"verdicts {v}"
            return None

        def series(v, dims=dims):
            got = (v["lower_central_dims"], v["derived_dims"])
            return None if got == dims else f"series {got}, want {dims}"

        def derivations(v, n=n):
            want_dim = derivation_dim(n)
            return None if v["dim"] == want_dim else f"dim {v['dim']}, want {want_dim}"

        add(f"triangular {n}", ["triangular", "--n", str(n), "--out", str(table)],
            expect_ok(lambda v: None, want), writes=table)
        add(f"check T({n})", ["check", str(table)], expect_ok(checked))
        add(f"series T({n})", ["series", str(table)], expect_ok(series))
        add(f"derivations T({n})", ["derivations", str(table)], expect_ok(derivations))

    for n, samples in theorem:
        def proved(v, samples=samples):
            if (v["skew_relations_forced"], v["all_samples_lie"], v["samples"]) \
                    != (True, True, samples):
                return f"verdicts {v}"
            return None
        add(f"theorem n={n}", ["verify", "--theorem", "3.4", "--n", str(n),
                               "--samples", str(samples)], expect_ok(proved))

    # Three inputs the program mishandles today; they do not depend on the seed.
    zero_div = workdir / "zero.params"
    zero_div.write_text("a1_12_12 = 1/0\n", encoding="utf-8")
    bad_record = workdir / "bad_record.json"
    bad_record.write_text(json.dumps({"dim": 1, "labels": ["a"], "brackets": [5]}),
                          encoding="utf-8")
    add("extend 1/0", ["extend", "--n", "4", "--f", "1", "--params", str(zero_div)],
        expect_rejected, known_fault="a params value of 1/0 raises ZeroDivisionError")
    add("check bad record", ["check", str(bad_record)], expect_rejected,
        known_fault="a bracket record that is not an object raises TypeError")
    add("theorem samples -5", ["verify", "--theorem", "3.4", "--n", "4",
                               "--samples", "-5"], expect_rejected,
        known_fault="verify --theorem --samples -5 exits 1")

    def coefficients(outputs: list) -> list:
        return [lab["scalars"].Scalar(*z) for z in drawn]

    return Workload(ops, coefficients)


BUILDERS = {"relations": relations, "transport": transport, "session": session}
