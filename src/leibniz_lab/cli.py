"""Command line front end.

Every subcommand prints either human-readable lines or, with
--format structured, one JSON object {command, verdicts, artifacts,
exit_code}.  Exit codes: 0 verified or succeeded, 1 a checked property was
refuted, 2 the input was unusable (parse error, bad parameters, bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .algebra import (TableChecks, derivation_algebra, dumps_table, load_table,
                      save_table, series_signature, table_to_document)
from .classify import CanonicalForm, L41Params, build_canonical, classify_L41
from .extensions import (ExtensionSpec, build_extension, derive_relations,
                         verify_corner_annihilation, verify_max_extension_is_lie)
from .scalars import Record, Scalar
from .triangular import generator_label, triangular


class CliError(ValueError):
    """Problem with the invocation or its input files; exits with code 2."""


class _HelpRequested(Exception):
    """-h or --help was given; carries the help text."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise CliError and whose help
    raises _HelpRequested, instead of printing and exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# Largest n that `triangular --n` accepts: T(40) has dimension 780 and 19,760
# nonzero brackets (a 3 MB file), and the table grows as n^3.
MAX_TRIANGULAR_N = 40


def triangular_size(text: str) -> int:
    """argparse type for `triangular --n`: 3 <= n <= MAX_TRIANGULAR_N."""
    value = int(text)
    if not 3 <= value <= MAX_TRIANGULAR_N:
        raise argparse.ArgumentTypeError(
            f"expected 3 <= n <= {MAX_TRIANGULAR_N}, got {text!r}")
    return value


class Report(Record):
    command: str
    verdicts: dict
    artifacts: Sequence[str] = ()
    exit_code: int = 0


def read_params(path: str) -> dict:
    """Parameter file: one 'name = value' per line, # starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, text = line.partition("=")
        name = name.strip()
        text = text.strip()
        if not eq or not name or not text:
            raise CliError(f"{path}:{lineno}: expected 'name = value'")
        if name in values:
            raise CliError(f"{path}:{lineno}: duplicate parameter {name!r}")
        try:
            values[name] = Scalar.parse(text)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from exc
    return values


def _load(path: str):
    try:
        return load_table(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write_table(table, path: str) -> None:
    try:
        save_table(table, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _infer_layout(table) -> tuple:
    """Recover (n, f) from the standard labels of an extension table."""
    for n in range(3, 16):
        d = n * (n - 1) // 2
        if d >= table.dim:
            break
        f = table.dim - d
        if f > n - 1:
            continue
        want = list(triangular(n).labels) + \
            [generator_label(f, al) for al in range(1, f + 1)]
        if list(table.labels) == want:
            return n, f
    raise CliError("cannot infer the (n, f) layout from the table labels; "
                   "expected the standard N/X naming")


def cmd_triangular(args) -> Report:
    table = triangular(args.n)
    _write_table(table, args.out)
    verdicts = {"n": args.n, "dim": table.dim, "leibniz": True, "lie": True}
    return Report("triangular", verdicts, [args.out])


def cmd_extend(args) -> Report:
    params = read_params(args.params)
    spec = ExtensionSpec(n=args.n, f=args.f, params=params)
    table = build_extension(spec, verify=True)
    verdicts = {"n": args.n, "f": args.f, "dim": table.dim, "leibniz": True}
    artifacts = []
    if args.out:
        _write_table(table, args.out)
        artifacts.append(args.out)
    elif args.fmt == "structured":
        verdicts["table"] = table_to_document(table)
    else:
        # the table itself is the whole output; keep stdout one document
        sys.stdout.write(dumps_table(table))
        verdicts = {}
    return Report("extend", verdicts, artifacts)


def _verify_lemma(args) -> Report:
    if args.n is None:
        raise CliError("--lemma needs --n")
    rep = derive_relations(args.n, 1 if args.f is None else args.f, seed=args.seed)
    b_count = sum(1 for p in rep.expected_linear
                  if any(v.startswith("b") for v in p.indeterminates()))
    s_count = len(rep.expected_linear) - b_count
    verdicts = {
        "lemma": args.lemma,
        "n": rep.n,
        "f": rep.f,
        "linear_matches_expected": rep.linear_matches_expected,
        "left_action_relations": b_count,
        "generator_square_relations": s_count,
        "unexplained_residuals": len(rep.unexplained_residual),
        "quadratic_residuals": len(rep.quadratic_residuals),
        "sample_points": rep.sample_points,
        "sampling_ok": rep.sampling_ok,
        "stated_restrictions_complete": rep.tracefree_covered,
        "witness": rep.witness and {"draw": rep.witness[0], "extra": str(rep.witness[1]),
                                    "point": {name: str(v) for name, v in rep.witness[2]}},
    }
    # the lemma is the linear layer; a witness refutes only the stated products
    return Report("verify", verdicts, [], 0 if rep.ok else 1)


def _verify_theorem(args) -> Report:
    if args.n is None:
        raise CliError("--theorem needs --n")
    rep = verify_max_extension_is_lie(args.n, seed=args.seed,
                                      samples=100 if args.samples is None else args.samples)
    verdicts = {
        "theorem": args.theorem,
        "n": rep.n,
        "f": rep.f,
        "skew_relations_forced": rep.skew_relations_forced,
        "all_samples_lie": rep.all_samples_lie,
        "samples": rep.samples,
    }
    return Report("verify", verdicts, [], 0 if rep.ok else 1)


def _verify_identity(args) -> Report:
    if not args.file:
        raise CliError("--eq needs an algebra file argument")
    table = _load(args.file)
    n, f = _infer_layout(table)
    ok = verify_corner_annihilation(table, n, f)
    verdicts = {"identity": args.eq, "n": n, "f": f,
                "corner_annihilation": ok}
    return Report("verify", verdicts, [], 0 if ok else 1)


# verify mode -> (handler, options it does not read): --theorem forces
# f = n - 1, and --eq reads (n, f) from the file's labels
_VERIFY_MODES = {"lemma": (_verify_lemma, ("samples",)),
                 "theorem": (_verify_theorem, ("f",)),
                 "eq": (_verify_identity, ("n", "f", "samples"))}


def cmd_verify(args) -> Report:
    chosen = [mode for mode in _VERIFY_MODES if getattr(args, mode) is not None]
    if len(chosen) != 1:
        raise CliError("pick exactly one of --lemma, --theorem, --eq")
    handler, unread = _VERIFY_MODES[chosen[0]]
    for name in unread:
        if getattr(args, name) is not None:
            raise CliError(f"--{name} does not apply to --{chosen[0]}")
    return handler(args)


def cmd_check(args) -> Report:
    table = _load(args.file)
    checks = TableChecks.of(table)
    lc, dv = checks.signature
    verdicts = {
        "dim": table.dim,
        "leibniz": checks.leibniz,
        "lie": checks.lie,
        "nilpotent": checks.nilpotent,
        "solvable": checks.solvable,
        "lower_central_dims": list(lc),
        "derived_dims": list(dv),
    }
    return Report("check", verdicts, [], 0 if checks.leibniz else 1)


def cmd_series(args) -> Report:
    table = _load(args.file)
    lc, dv = series_signature(table)
    verdicts = {
        "dim": table.dim,
        "lower_central_dims": list(lc),
        "derived_dims": list(dv),
    }
    return Report("series", verdicts)


def cmd_derivations(args) -> Report:
    table = _load(args.file)
    der = derivation_algebra(table)
    verdicts = {"dim": der.dim, "ambient_dim": table.dim}
    if args.fmt == "structured":
        # the dense RREF rows' text from the sparse pivot rows: most entries are "0"
        basis = []
        for p, tail in sorted(der.acc.pivots.items()):
            row = ["0"] * der.ambient
            row[p] = "1"
            for c, x in tail.items():
                row[c] = str(x)
            basis.append(row)
        verdicts["basis"] = basis
    return Report("derivations", verdicts)


def cmd_classify_l41(args) -> Report:
    values = read_params(args.params)
    params = L41Params.from_mapping(values)
    result = classify_L41(params)
    verdicts = {
        "form": result.form.id,
        "case": result.case,
        "params": {k: str(v) for k, v in result.form.params.items()},
        "witness": [[str(c) for c in row] for row in result.witness.p.rows],
    }
    if result.note:
        verdicts["note"] = result.note
    return Report("classify-l41", verdicts)


def cmd_canonical(args) -> Report:
    values = read_params(args.params) if args.params else {}
    form = CanonicalForm(args.form, values)
    table = build_canonical(form)
    _write_table(table, args.out)
    verdicts = {"form": form.id, "dim": table.dim}
    return Report("canonical", verdicts, [args.out])


HANDLERS = {
    "triangular": cmd_triangular,
    "extend": cmd_extend,
    "verify": cmd_verify,
    "check": cmd_check,
    "series": cmd_series,
    "derivations": cmd_derivations,
    "classify-l41": cmd_classify_l41,
    "canonical": cmd_canonical,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized step (default 0)")
    common.add_argument("--format", choices=("text", "structured"),
                        default="text", dest="fmt",
                        help="output style; structured prints one JSON object")

    ap = _Parser(
        prog="leibniz-lab",
        description="Exact computations with triangular nilpotent algebras "
                    "and their solvable extensions.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangular", parents=[common],
                       help="write the strictly upper triangular table")
    p.add_argument("--n", type=triangular_size, required=True,
                   help=f"matrix size, 3 <= n <= {MAX_TRIANGULAR_N}")
    p.add_argument("--out", required=True, help="output algebra file")

    p = sub.add_parser("extend", parents=[common],
                       help="build a concrete solvable extension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", type=int, required=True, help="generator count")
    p.add_argument("--params", required=True, help="parameter file")
    p.add_argument("--out", help="output algebra file (default: stdout)")

    p = sub.add_parser("verify", parents=[common],
                       help="run one of the mechanical verifications")
    p.add_argument("--lemma", choices=("3.1", "3.2"),
                   help="derive the forced linear relations at rank (n, f)")
    p.add_argument("--theorem", choices=("3.4",),
                   help="check the full-rank extension family is skew")
    p.add_argument("--eq", choices=("3",),
                   help="check corner annihilation on a non-skew table")
    p.add_argument("--n", type=int)
    p.add_argument("--f", type=int, help="generator count for --lemma (default 1)")
    p.add_argument("--samples", type=positive_int,
                   help="sample count for --theorem (default 100)")
    p.add_argument("file", nargs="?", help="algebra file (for --eq)")

    p = sub.add_parser("check", parents=[common],
                       help="report bracket identity, skewness, and series")
    p.add_argument("file")

    p = sub.add_parser("series", parents=[common],
                       help="print lower central and derived series dimensions")
    p.add_argument("file")

    p = sub.add_parser("derivations", parents=[common],
                       help="compute the derivation algebra of a table")
    p.add_argument("file")

    p = sub.add_parser("classify-l41", parents=[common],
                       help="classify a non-skew member of the n=4 family")
    p.add_argument("--params", required=True, help="parameter file")

    p = sub.add_parser("canonical", parents=[common],
                       help="write one of the canonical tables")
    p.add_argument("--form", choices=("L1", "L2", "L3", "L42"), required=True)
    p.add_argument("--params", help="parameter file for the residual entries")
    p.add_argument("--out", required=True)

    return ap


# argparse keeps no state between parses, so one parser serves every call.
PARSER = build_parser()


def _emit(report: Report, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(report._asdict(), indent=2))
        return
    if report.exit_code == 2:
        return
    for key, value in report.verdicts.items():
        if isinstance(value, (dict, list)):
            print(f"{key}: {json.dumps(value)}")
        else:
            print(f"{key}: {value}")
    for path in report.artifacts:
        print(f"wrote {path}")


def _requested_format(argv: list) -> str:
    """The --format value in argv, read without argparse for usage errors."""
    fmt = "text"
    for k, tok in enumerate(argv):
        if tok == "--format" and k + 1 < len(argv):
            fmt = argv[k + 1]
        elif tok.startswith("--format="):
            fmt = tok.partition("=")[2]
    return fmt


def run(argv=None) -> Report:
    argv = sys.argv[1:] if argv is None else list(argv)
    structured = _requested_format(argv) == "structured"
    command = argv[0] if argv and argv[0] in HANDLERS else None
    try:
        args = PARSER.parse_args(argv)
    except _HelpRequested as exc:
        if structured:
            _emit(Report(command, {"help": exc.args[0]}, [], 0), "structured")
        else:
            print(exc.args[0], end="")
        raise SystemExit(0) from None
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if structured:
            _emit(Report(command, {"error": str(exc)}, [], 2), "structured")
        raise SystemExit(2) from None
    fmt = args.fmt
    try:
        report = HANDLERS[args.command](args)
    except ValueError as exc:  # CliError among them
        report = Report(args.command, {"error": str(exc)}, [], 2)
        print(f"error: {exc}", file=sys.stderr)
    _emit(report, fmt)
    return report


def main(argv=None) -> int:
    try:
        return run(argv).exit_code
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
