"""Self-tests of the benchmark: its checks catch wrong answers, its inputs are
reproducible, its reference arithmetic agrees with nctori, and its tracing
adds up.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from nctori.cli import main as cli_main  # noqa: E402
from nctori.invariants import invariant_ranks, parse_block_spec  # noqa: E402
from nctori.wfun import AbelianGroup, w_group  # noqa: E402


def reply(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def requests(workload: str, count: int, workdir: str, seed: int = 3) -> list[dict]:
    return gen.WORKLOADS[workload](seed, count, workdir)


# -- the checks accept right answers ------------------------------------------


@pytest.mark.parametrize("workload,count", [("verdicts", 300), ("analyze_small", 28), ("analyze_large", 20)])
def test_real_replies_pass(workload, count, tmp_path):
    pool = requests(workload, count, str(tmp_path))
    records = []
    for i, req in enumerate(pool):
        code, out = reply(req["argv"])
        records.append({"i": i, "code": code, "out": out})
    assert run.check_records(records, pool) == []


# -- ... and count wrong ones --------------------------------------------------


def _mutated(argv, edit) -> str:
    code, out = reply(argv)
    assert code == 0
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload)


def test_flipped_simple_action_fails():
    expect = {"kind": "cyclic", "d": 6, "n": 9, "json": True}
    argv = ["classify", "6", "9", "--json"]
    bad = _mutated(argv, lambda p: p.update(simple_action=not p["simple_action"]))
    assert check.check(expect, 0, bad) is not None


def test_wrong_af_computed_fails():
    expect = {"kind": "group", "d": 4, "factors": [2, 2], "free": 0}
    argv = ["classify-group", "4", "Z2xZ2", "--json"]
    bad = _mutated(argv, lambda p: p.update(AF_computed=not p["AF_computed"]))
    assert check.check(expect, 0, bad) is not None


def test_oracle_rank_off_by_one_fails(tmp_path):
    (req,) = [r for r in requests("analyze_small", 4, str(tmp_path)) if r["expect"]["form"] == "conj"][:1]
    def edit(p):
        p["oracle_ranks"][2] += 1
    assert check.check(req["expect"], 0, _mutated(req["argv"], edit)) is not None


def test_infinite_order_must_exit_two(tmp_path):
    pool = requests("analyze_large", len(gen.ANALYZE_LARGE_CYCLE), str(tmp_path))
    req = next(r for r in pool if r["expect"]["form"] == "inf")
    code, out = reply(req["argv"])
    assert code == 2 and check.check(req["expect"], code, out) is None
    assert check.check(req["expect"], 0, out) is not None


def test_failures_count_in_error_rate():
    pool = [{"argv": ["classify", "6", "9", "--json"], "expect": {"kind": "cyclic", "d": 6, "n": 9, "json": True}}]
    code, out = reply(pool[0]["argv"])
    good = {"i": 0, "code": code, "out": out}
    flipped = dict(good, out=out.replace('"simple_action": true', '"simple_action": false'))
    crashed = dict(good, code=None, out="Traceback ...")
    assert len(run.check_records([good, flipped, crashed, good], pool)) == 2


# -- reproducible inputs -------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes(workload, tmp_path):
    def snapshot(sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        pool = requests(workload, 60, str(workdir), seed=11)
        argvs = json.dumps([r["argv"] for r in pool]).replace(str(workdir), "W")
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return argvs, files

    assert snapshot("a") == snapshot("b")
    other = requests(workload, 60, str(tmp_path), seed=12)
    assert [r["expect"] for r in other] != [r["expect"] for r in requests(workload, 60, str(tmp_path), seed=11)]


# -- reference arithmetic agrees with nctori -----------------------------------


def test_reference_w_group_matches():
    for k in (1, 2, 3):
        for factors in itertools.combinations_with_replacement(range(2, 13), k):
            assert ref.w_group(factors) == w_group(AbelianGroup.from_factors(factors))[0], factors


def test_reference_ranks_match():
    for d in range(1, 9):
        for spec in (gen.random_spec(random.Random(d * 100 + k), d) for k in range(5)):
            ours = ref.invariant_ranks(tuple(spec))
            assert ours == invariant_ranks(parse_block_spec("+".join(spec))), spec


# -- tracing -------------------------------------------------------------------


def test_summarize_self_time():
    # root [0, 10] with children [1, 4] and [5, 6]; the first child has a
    # recursive grandchild of the same function [2, 3].
    spans_ = [
        [-1, 0, "cli.main", 0.0, 10.0, 0, True],
        [0, 0, "exactlin.order", 1.0, 4.0, 0, True],
        [1, 0, "exactlin.order", 2.0, 3.0, 0, False],
        [0, 0, "arith.factorize", 5.0, 6.0, 0, True],
    ]
    out = spans.summarize(spans_)
    assert out["layers"]["cli"] == pytest.approx(6.0)
    assert out["layers"]["exactlin"] == pytest.approx(3.0)
    assert out["layers"]["arith"] == pytest.approx(1.0)
    assert out["functions"]["exactlin.order"] == {"calls": 2, "total_s": 3.0, "work": 0}
    # nested and recursive spans of the named functions count once
    assert spans.covered_s(spans_, ["exactlin.order", "arith.factorize"]) == pytest.approx(4.0)
    assert spans.covered_s(spans_, ["cli.main", "exactlin.order"]) == pytest.approx(10.0)


def test_traced_worker_records_every_layer(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    pool = requests("analyze_small", 3, str(tmp_path)) + requests("verdicts", 60, str(tmp_path))
    req_path = tmp_path / "requests.jsonl"
    req_path.write_text("".join(json.dumps(r["argv"]) + "\n" for r in pool))
    records, summary = run.run_worker(str(tmp_path), "t", str(req_path), True)
    assert len(records) == len(pool) and summary is not None
    assert all(0 <= r["c"] < len(summary["cal_s"]) for r in records)
    assert run.check_records(records, pool) == []
    with open(tmp_path / "t.spans.json", encoding="utf-8") as fh:
        recorded = json.load(fh)
    roots = [s for s in recorded if s[spans.PARENT] == -1]
    assert [s[spans.NAME] for s in roots] == ["cli.main"] * len(pool)
    assert [s[spans.REQUEST] for s in roots] == list(range(len(pool)))
    funcs = spans.summarize(recorded)["functions"]
    assert funcs["invariants.invariant_rank_oracle"]["calls"] > 0
    assert funcs["exactlin.Matrix.__init__"]["work"] > 0
    assert set(summary["caches"]) == {attr for _, attr in spans.CACHES}


def test_times_are_scaled_to_the_reference_speed():
    ref = run.CALIBRATE_REF_S
    # requests 0-1 run next to chunks at the reference speed, 2-3 next to chunks
    # twice as slow, so all four took the same work
    records = [{"s": s, "c": c} for s, c in [(0.1, 0), (0.3, 0), (0.2, 9), (0.6, 9)]]
    summary = {"cal_s": [ref] * 5 + [2 * ref] * 7, "peak_rss_kb": 1024}
    values = run.end_to_end(records, summary, 0.1)
    assert values["requests_per_s"] == pytest.approx(4 / 0.8)
    assert values["latency_p50_ms"] == pytest.approx(200.0)
    assert values["peak_rss_mb"] == 1.0


def test_run_checks_every_reply(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_STARTS", 2)
    out = run.run("analyze_small", 1, 1, False)
    assert out["result"]["attempted"] == run.MIN_REQUESTS and out["result"]["failed"] == 0
    assert set(out["result"]["metrics"]) == set(run.END_TO_END_UNITS)


def test_peak_rss_is_the_workers_own(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    ballast = bytearray(256 * 1024 * 1024)  # touched pages in the parent, which forks the worker
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    req_path = tmp_path / "requests.jsonl"
    req_path.write_text(json.dumps(["classify", "6", "9"]) + "\n")
    records, summary = run.run_worker(str(tmp_path), "t", str(req_path), False)
    assert len(records) == 1 and summary["peak_rss_kb"] < 128 * 1024
