"""Output checks: each returns None for a right answer, or a one-line reason.

Expected values come from ``reference.py`` and the generating inputs, in the
benchmark's own process, so checking never warms the caches of the process
being timed.
"""

from __future__ import annotations

import json
import re

import reference as ref

EXACT_ZERO = {"kind": "exact", "value": 0}


def _blocks_fill(labels, d: int) -> str | None:
    total = sum(ref.block_dim(b) for b in labels)
    return None if total == d else f"blocks {labels} have dimension {total}, not {d}"


def _flags(reply: dict, simple: bool, af_paper: bool) -> str | None:
    if reply["AT"] != simple:
        return f"AT={reply['AT']} but simple_action={simple}"
    if reply["AF_computed"] != (reply["k1"] == EXACT_ZERO):
        return f"AF_computed={reply['AF_computed']} disagrees with k1={reply['k1']}"
    if reply["AF_paper"] != af_paper:
        return f"AF_paper={reply['AF_paper']}, expected {af_paper}"
    if reply["divergence"] != (reply["AF_computed"] != reply["AF_paper"]):
        return "divergence flag disagrees with AF_computed vs AF_paper"
    return None


def _verdict(reply: dict, d: int, label: str, w: int, gap_one_blocks: bool,
             order: int, af_paper: bool) -> str | None:
    """Checks shared by classify and classify-group JSON verdicts.

    ``gap_one_blocks`` is true when a gap of one rules the action out (it is
    false for groups with free rank, whose extra dimension restores it)."""
    if reply.get("d") != d or reply.get("input") != label:
        return f"echoes d={reply.get('d')} input={reply.get('input')}, expected {d} {label}"
    realizable = w <= d
    if reply["realizable"] != realizable:
        return f"realizable={reply['realizable']} but W={w}, d={d}"
    if not realizable:
        if reply["simple_action"] or reply["reason"] != "w_too_big" or reply["blocks"]:
            return "unrealizable verdict claims an action or blocks"
        return _flags(reply, False, False)
    gap = d - w
    simple = not (gap == 1 and gap_one_blocks)
    if reply["simple_action"] != simple:
        return f"simple_action={reply['simple_action']} at gap {gap}"
    if reply["reason"] != ("exists" if simple else "gap_one"):
        return f"reason {reply['reason']!r} at gap {gap}"
    if reply["order"] != order:
        return f"order {reply['order']}, expected {order}"
    if simple and reply["k1"] is None:
        return "existing action without k1"
    return _blocks_fill(reply["blocks"], d) or _flags(reply, simple, simple and af_paper)


def check_cyclic_json(expect: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    d, n = expect["d"], expect["n"]
    w = ref.w_order(n)
    return _verdict(json.loads(out), d, f"Z{n}", w, True, n, d == w and ref.af_paper(n))


_TEXT_HEAD = re.compile(r"^d=(\d+)  input=Z(\d+)  W=(\d+)$")
_TEXT_VIA = re.compile(r"^simple action exists  via (\S+)  \(order (\d+)\)$")
_TEXT_K = re.compile(r"^K-ranks: k0=(\S+)  k1=(\S+)$")
_TEXT_FLAGS = re.compile(r"^AT=(yes|no)  AF_computed=(yes|no)  AF_paper=(yes|no)  divergence=(yes|no)$")


def check_cyclic_text(expect: dict, code: int, out: str) -> str | None:
    """Plain-text verdict; the large-d share always has a gap above one."""
    if code != 0:
        return f"exit {code}"
    d, n = expect["d"], expect["n"]
    lines = out.splitlines()
    if len(lines) != 4:
        return f"expected 4 lines of text verdict, got {len(lines)}"
    head, via, ks, flags = (
        rx.match(line) for rx, line in zip((_TEXT_HEAD, _TEXT_VIA, _TEXT_K, _TEXT_FLAGS), lines)
    )
    if not (head and via and ks and flags):
        return f"unparsable text verdict: {out!r}"
    w = ref.w_order(n)
    if (int(head[1]), int(head[2]), int(head[3])) != (d, n, w):
        return f"header {lines[0]!r}, expected d={d} n={n} W={w}"
    if d - w < 2:
        return f"text share generated with gap {d - w}"
    if int(via[2]) != n:
        return f"order {via[2]}, expected {n}"
    at, af_c, af_p, div = (f == "yes" for f in flags.groups())
    if not at or af_p or af_c != (ks[2] == "0") or div != (af_c != af_p):
        return f"inconsistent flags {lines[3]!r} for k1={ks[2]}"
    return _blocks_fill(via[1].split("+"), d)


def check_group(expect: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    d, factors, free = expect["d"], expect["factors"], expect["free"]
    powers = sorted(p**e for n in factors for p, e in ref.factorize(n))
    label = "x".join([f"Z{q}" for q in powers] + ([f"Z^{free}"] if free else []))
    w = ref.w_group(factors)
    # The closed-form AF predicate needs the chosen decomposition, which the
    # verdict does not expose; only its consistency is checked.
    reply = json.loads(out)
    return _verdict(reply, d, label, w, free == 0, ref.group_exponent(factors), reply["AF_paper"])


def check_analyze(expect: dict, code: int, out: str) -> str | None:
    if expect["form"] == "inf":
        if code != 2:
            return f"infinite-order matrix exited {code}, expected 2"
        return None if "error" in json.loads(out) else "no error message for infinite order"
    if code != 0:
        return f"exit {code}"
    spec, d = expect["spec"], expect["d"]
    reply = json.loads(out)
    ranks = list(ref.invariant_ranks(tuple(spec)))
    order = ref.spec_order(spec)
    free = ref.free_outside_origin(spec)
    if reply["d"] != d or reply["order"] != order:
        return f"d={reply['d']} order={reply['order']}, expected {d} {order}"
    if reply["free_outside_origin"] != free:
        return f"free_outside_origin={reply['free_outside_origin']}, expected {free}"
    for key in ("oracle_ranks", "spectrum_ranks"):
        if reply[key] is not None and reply[key] != ranks:
            return f"{key}={reply[key]}, expected {ranks}"
    if reply["blocks"] is not None and sorted(ref.spectrum(reply["blocks"])) != sorted(ref.spectrum(spec)):
        return f"blocks {reply['blocks']} do not have the spectrum of {spec}"
    if reply["s1"] is not None:
        s1 = sum(ranks[1::2])
        if not free or reply["s1"] != s1 or reply["k1"] != {"kind": "exact", "value": s1}:
            return f"s1={reply['s1']} k1={reply['k1']}, expected {s1} (free={free})"
    if reply["invariant_space_dim"] != ranks[2]:
        return f"invariant_space_dim={reply['invariant_space_dim']}, expected {ranks[2]}"
    return None


def check(expect: dict, code: int, out: str) -> str | None:
    """Check one reply; malformed output counts as a failure, not a crash."""
    kind = expect["kind"]
    if kind == "cyclic":
        fn = check_cyclic_json if expect["json"] else check_cyclic_text
    else:
        fn = check_group if kind == "group" else check_analyze
    try:
        return fn(expect, code, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc}): {out[:200]!r}"
