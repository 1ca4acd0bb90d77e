"""Command-line surface: group-expression parsing, commands, and rendering.

Exit codes: 0 on success, 1 on usage or parse errors, 2 on domain errors
(for example an order below 2).  With ``--json`` the same information is
emitted as a single JSON document; errors become {"error": ...}.  The only
environment variable honored is NO_COLOR, which suppresses ANSI styling in
text output (styling is only attempted on a terminal anyway).
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from .arith import cyclotomic
from .classify import (
    ActionReport,
    Verdict,
    analyze_action,
    check_rank_dim,
    classify_cyclic,
    classify_group,
    classify_fg,
    report_json,
    verdict_json,
)
from .exactlin import Matrix
from .invariants import (
    block_label,
    even_invariant_sum,
    invariant_ranks,
    parse_block_spec,
    s1,
    spec_dim,
    spec_free,
    spec_order,
)
from .wfun import AbelianGroup, max_finite_order, w_group, w_order


class CliParseError(Exception):
    """Malformed command-line input (exit code 1)."""


_TERM_RE = re.compile(r"^Z(?:(\d+)|\^(\d+))$", re.IGNORECASE)


def parse_group(text: str) -> AbelianGroup:
    """Parse a group expression: 'x'-separated terms Z<n> (cyclic factor,
    n >= 2, split into prime powers) or Z^<r> (free rank).

    >>> parse_group("Z6xZ^3")
    AbelianGroup(torsion=(2, 3), free_rank=3)
    """
    squeezed = "".join(text.split())
    if not squeezed:
        raise CliParseError("empty group expression")
    factors: list[int] = []
    free_rank = 0
    pos = 0
    for term in squeezed.replace("X", "x").split("x"):
        m = _TERM_RE.match(term)
        if not m:
            raise CliParseError(f"bad term {term!r} at position {pos} (expected Z<n> or Z^<r>)")
        if m.group(1) is not None:
            n = int(m.group(1))
            if n < 2:
                raise CliParseError(f"Z{n} at position {pos} is not a nontrivial cyclic factor")
            factors.append(n)
        else:
            free_rank += int(m.group(2))
        pos += len(term) + 1
    return AbelianGroup.from_factors(factors, free_rank)


def read_matrix_file(path: str) -> Matrix:
    """Matrix text format: first line d, then d lines of d integers."""
    try:
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    if not tokens:
        raise CliParseError(f"{path}: empty matrix file")
    try:
        values = list(map(int, tokens))
    except ValueError as exc:
        raise CliParseError(f"{path}: non-integer token ({exc})") from exc
    d = values[0]
    if d < 1:
        raise CliParseError(f"{path}: dimension must be at least 1, got {d}")
    if len(values) != 1 + d * d:
        raise CliParseError(f"{path}: expected {d} x {d} entries after the dimension line")
    return Matrix((values[i * d + 1 : (i + 1) * d + 1] for i in range(d)), d)


def _styled(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _print_verdict_text(v: Verdict):
    print(f"d={v.d}  input={v.input_label}  W={v.w}")
    if not v.realizable_in_gl_d:
        print(_styled(f"not realizable: W={v.w} exceeds d={v.d}", "31"))
        return
    if not v.simple_action_exists:
        print(_styled("no simple action (gap one)", "31"))
        if v.realization:
            print(f"realization: {'+'.join(block_label(b) for b in v.realization.blocks)}"
                  f"  (order {v.realization.order})")
        return
    blocks = "+".join(block_label(b) for b in v.realization.blocks)
    print(_styled("simple action exists", "32") + f"  via {blocks}  (order {v.realization.order})")
    print(f"K-ranks: k0={v.k.k0}  k1={v.k.k1}")
    print(f"AT={_yesno(v.is_at)}  AF_computed={_yesno(v.is_af_computed)}"
          f"  AF_paper={_yesno(v.is_af_paper_predicate)}  divergence={_yesno(v.divergence_flag)}")


TABLE_MAX_VERDICTS = 200_000
# Largest --dmax of ``table``: every row pays for ranks at its own d, and a
# full TABLE_MAX_VERDICTS grid at d <= 100 takes about 10 s.
TABLE_MAX_DIM = 100


def _default_nmax(dmax: int) -> int:
    """max_finite_order(dmax), the default order range of ``table``; a
    ValueError once dmax * max_finite_order(dmax) passes TABLE_MAX_VERDICTS.

    The product grows with d, so it is checked from d = 1 upwards and the
    first d past the limit stops the search; max_finite_order is never asked
    for a large d, where its own search is slow."""
    for d in range(1, dmax + 1):
        nmax = max_finite_order(d)
        if d * nmax > TABLE_MAX_VERDICTS:
            raise ValueError(
                f"table --dmax {dmax} without --nmax would run more than {TABLE_MAX_VERDICTS} "
                f"verdicts ({d} x max order {nmax} already at d = {d}); pass --nmax to bound the orders"
            )
    return nmax


def _check_table_size(dmax: int, nmax: int) -> None:
    """ValueError when the grid passes TABLE_MAX_DIM or TABLE_MAX_VERDICTS."""
    if dmax > TABLE_MAX_DIM:
        raise ValueError(f"table --dmax {dmax} exceeds the limit TABLE_MAX_DIM = {TABLE_MAX_DIM}")
    verdicts = dmax * max(nmax - 1, 0)
    if verdicts > TABLE_MAX_VERDICTS:
        raise ValueError(
            f"table --dmax {dmax} --nmax {nmax} would run {verdicts} verdicts, "
            f"past the limit TABLE_MAX_VERDICTS = {TABLE_MAX_VERDICTS}"
        )


def _table_rows(dmax: int, nmax: int):
    for d in range(1, dmax + 1):
        for n in range(2, nmax + 1):
            yield classify_cyclic(d, n)


def _print_table_text(dmax: int, nmax: int):
    header = f"{'d':>3} {'n':>4} {'W':>4} {'exists':>7} {'AT':>4} {'AF_c':>5} {'AF_p':>5} {'k1':>6}"
    print(header)
    print("-" * len(header))
    for v in _table_rows(dmax, nmax):
        k1 = str(v.k.k1) if v.k else "-"
        print(
            f"{v.d:>3} {int(v.input_label[1:]):>4} {v.w:>4} "
            f"{_yesno(v.simple_action_exists):>7} {_yesno(v.is_at):>4} "
            f"{_yesno(v.is_af_computed):>5} {_yesno(v.is_af_paper_predicate):>5} {k1:>6}"
        )


def _print_report_text(r: ActionReport):
    print(f"dimension: {r.dim}")
    print(f"order: {r.order}")
    print(f"free outside origin: {_yesno(r.free)}")
    print(f"cyclotomic type: {'+'.join(block_label(b) for b in r.blocks)}")
    if r.oracle_ranks is not None:
        print(f"invariant ranks (Molien):      {list(r.oracle_ranks)}")
    print(f"invariant ranks (spectrum):    {list(r.spectrum_ranks)}")
    if r.s1 is not None:
        print(f"s1 = {r.s1}   K1 rank = {r.k1}")
    else:
        print(r.s1_note)
    print(f"invariant space dimension: {r.invariant_space_dim}")
    print(f"nondegenerate invariant theta exists: {_yesno(r.theta_exists)}")


def _print_theta_text(payload: dict):
    print(f"invariant space dimension: {payload['invariant_space_dim']}")
    print(f"nondegenerate invariant theta exists: {_yesno(payload['nondegenerate_exists'])}")
    if payload["witness"] is not None:
        print("witness (upper triangle):")
        for i, row in enumerate(payload["witness"]["entries"]):
            for j in range(i + 1, len(row)):
                if row[j] != "0":
                    print(f"  theta[{i + 1},{j + 1}] = {row[j]}")


def _theta_json(a: Matrix) -> dict:
    from .theta import invariant_space, nondegenerate_witness  # only this subcommand loads theta
    basis = invariant_space(a)
    exists, witness = nondegenerate_witness(basis, a.nrows)
    payload = {
        "d": a.nrows,
        "invariant_space_dim": len(basis),
        "nondegenerate_exists": exists,
        "witness": None,
    }
    if witness is not None:
        payload["witness"] = {
            "symbols": [name for name, _ in witness.symbol_parts],
            "entries": [[witness.entry(i, j) for j in range(witness.dim)] for i in range(witness.dim)],
        }
    return payload


# Each subcommand's help line and the (name, type) of its positionals, in
# order; None for the two that take options, which only argparse reads.  Every
# subcommand also takes --json.
_COMMANDS = {
    "wfun": ("dimension cost of an order-n element of GL_d(Z)", (("n", int),)),
    "wgroup": ("minimal dimension cost of a finite abelian group", (("expr", str),)),
    "cyclotomic": ("coefficients of the n-th cyclotomic polynomial", (("n", int),)),
    "s1": ("per-degree invariant ranks and their odd sum for a block spec", None),
    "classify": ("classify the Z_n action on a simple d-torus", (("d", int), ("n", int))),
    "classify-group": ("classify a finitely generated abelian group action", (("d", int), ("expr", str))),
    "theta": ("invariant skew forms of an integer matrix", (("matrix_file", str),)),
    "analyze": ("full action report for an integer matrix", (("matrix_file", str),)),
    "table": ("verdict grid over dimensions and orders", None),
}


def _build_parser():
    import argparse  # here, not at import: only help, errors and options need it

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            raise CliParseError(message)

        def parse_known_args(self, args=None, namespace=None):
            # after "-- --" argparse gives a one-value positional an empty list
            namespace, extras = super().parse_known_args(args, namespace)
            for dest, value in vars(namespace).items():
                if isinstance(value, list):
                    self.error(f"argument {dest}: expected one argument")
            return namespace, extras

    parser = _ArgumentParser(prog="nctori", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, kind in positionals or ():
            p.add_argument(dest, type=kind)
        if name == "s1":
            p.add_argument("--blocks", required=True, help="e.g. C9, negC27, C3+I2")
        elif name == "table":
            p.add_argument("--dmax", type=int, required=True)
            p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--json", action="store_true")
    return parser


def _read_plain(words: list[str]) -> SimpleNamespace | None:
    """The fields argparse gives ``words`` when they are a subcommand with
    positionals only, in the one shape read here: its exact count of
    positionals, none starting with '-', then at most one --json.  None for
    any other words (help, abbreviations, '--', a failed int(), s1, table),
    which are left to argparse.

    >>> _read_plain(["classify", "5", "3", "--json"])
    namespace(command='classify', d=5, n=3, json=True)
    >>> _read_plain(["classify", "5", "--json", "3"]) is None
    True
    """
    positionals = _COMMANDS[words[0]][1] if words and words[0] in _COMMANDS else None
    if positionals is None:
        return None
    values = words[1:]
    as_json = values[-1:] == ["--json"]
    if as_json:
        values = values[:-1]
    if len(values) != len(positionals) or any(w.startswith("-") for w in values):
        return None
    try:
        fields = {dest: kind(w) for (dest, kind), w in zip(positionals, values)}
    except ValueError:
        return None
    return SimpleNamespace(command=words[0], **fields, json=as_json)


def _dispatch(args) -> int:
    if args.command == "wfun":
        w = w_order(args.n)
        if args.json:
            print(json.dumps({"n": args.n, "w": w}))
        else:
            print(w)
    elif args.command == "wgroup":
        group = parse_group(args.expr)
        w, decomp = w_group(group)
        if args.json:
            print(json.dumps({"group": str(group), "w": w, "decomposition": list(decomp.parts)}))
        else:
            parts = " x ".join(f"Z{n}" for n in decomp.parts) if decomp.parts else "trivial"
            print(f"W = {w}  via {parts}")
    elif args.command == "cyclotomic":
        coeffs = cyclotomic(args.n)
        if args.json:
            print(json.dumps({"n": args.n, "coefficients": list(coeffs)}))
        else:
            print(" ".join(str(c) for c in coeffs))
    elif args.command == "s1":
        try:
            spec = parse_block_spec(args.blocks)
        except ValueError as exc:
            raise CliParseError(str(exc)) from exc
        check_rank_dim(spec_dim(spec))
        ranks = invariant_ranks(spec)
        odd = s1(spec)
        free = spec_free(spec)
        if args.json:
            print(json.dumps({
                "blocks": [block_label(b) for b in spec],
                "dimension": spec_dim(spec),
                "order": spec_order(spec),
                "free_outside_origin": free,
                "invariant_ranks": list(ranks),
                "s1": odd,
                "even_invariant_sum": even_invariant_sum(spec),
            }))
        else:
            for m, r in enumerate(ranks):
                print(f"degree {m}: {r}")
            print(f"s1 = {odd}  (even sum = {even_invariant_sum(spec)})")
            if not free:
                print("note: action is not free outside the origin; s1 is the raw odd sum")
    elif args.command == "classify":
        v = classify_cyclic(args.d, args.n)
        print(json.dumps(verdict_json(v))) if args.json else _print_verdict_text(v)
    elif args.command == "classify-group":
        group = parse_group(args.expr)
        v = classify_fg(args.d, group) if group.free_rank else classify_group(args.d, group)
        print(json.dumps(verdict_json(v))) if args.json else _print_verdict_text(v)
    elif args.command == "theta":
        payload = _theta_json(read_matrix_file(args.matrix_file))
        print(json.dumps(payload)) if args.json else _print_theta_text(payload)
    elif args.command == "analyze":
        a = read_matrix_file(args.matrix_file)
        report = analyze_action(a)
        print(json.dumps(report_json(report))) if args.json else _print_report_text(report)
    elif args.command == "table":
        if args.dmax < 1:
            raise ValueError("--dmax must be at least 1")
        if args.nmax is not None and args.nmax < 2:
            raise ValueError(f"--nmax must be at least 2, got {args.nmax}")
        nmax = args.nmax if args.nmax is not None else _default_nmax(args.dmax)
        _check_table_size(args.dmax, nmax)
        if args.json:
            print(json.dumps([verdict_json(v) for v in _table_rows(args.dmax, nmax)]))
        else:
            _print_table_text(args.dmax, nmax)
    return 0


_parser = None  # _build_parser's parser


def _parse(words: list[str]):
    """argparse's reading of ``words``."""
    global _parser
    if _parser is None:  # built on the first request that needs it, not at import
        _parser = _build_parser()
    return _parser.parse_args(words)


def main(argv=None) -> int:
    """Run one command.  A reader that closes stdout early gets exit code 1
    and no traceback: what is left of the output goes to os.devnull."""
    words = sys.argv[1:] if argv is None else list(argv)
    try:
        code = _run(words)
        sys.stdout.flush()  # so a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left early: Python's "Note on SIGPIPE"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(words: list[str]) -> int:
    """Words in the shape ``_read_plain`` reads skip argparse; all others go
    to it, with its own help and messages."""
    args = None
    try:
        args = _read_plain(words)
        if args is None:
            args = _parse(words)
        return _dispatch(args)
    except CliParseError as exc:
        _emit_error(args, words, str(exc))
        return 1
    except ValueError as exc:
        _emit_error(args, words, str(exc))
        return 2


def _emit_error(args, words, message: str):
    """JSON when the request asked for it: ``args.json`` once the words are
    parsed, else the literal word --json."""
    if args.json if args is not None else "--json" in words:
        print(json.dumps({"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
