"""Tests of the benchmark itself: python3 -m pytest perfbench

Each check must reject a deliberately corrupted output, and the quick mode
must run every workload on dim-3 inputs, untraced and traced, with its
checks passing and the layers it leaves idle reporting no calls.
"""

import json
import os
import signal
import sys
from time import perf_counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import speed  # noqa: E402
from checks import (CheckFailed, Table, conjugate, is_jordan,  # noqa: E402
                    is_nilpotent, is_witness, parse_algebra)
from workloads import WORKLOADS, Catalog, Classify, Iso, Oracle  # noqa: E402

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def cli_json(argv):
    rc, text = run.call(argv)
    assert rc == 0
    return json.loads(text)


def make_idempotent(doc):
    """Flip one structure constant of the zero class: e1 ∘ e1 = e1."""
    doc = json.loads(json.dumps(doc))
    zero = next(c for c in doc["classes"] if c["file"].count("\n") == 2)
    zero["file"] += "1 1 : 1:1\n"
    return json.dumps(doc)


@pytest.fixture(scope="module")
def classify_f2():
    return cli_json(["classify", "--dim", "3", "--field", "F:2", "--json"])


def test_classify_check_rejects_flipped_constant(classify_f2):
    check = Classify().build(1, None, quick=True)[0].check
    check(json.dumps(classify_f2))
    with pytest.raises(CheckFailed, match="nilpotent"):
        check(make_idempotent(classify_f2))


def test_classify_check_counts_direct_sums(classify_f2):
    check = Classify().build(1, None, quick=True)[0].check
    for cls in classify_f2["classes"]:
        cls["provenance"] = "brute-force enumeration"
    with pytest.raises(CheckFailed, match="direct sums"):
        check(json.dumps(classify_f2))


def test_oracle_check_rejects_flipped_constant_and_a_lost_class():
    oracle = Oracle()
    oracle.prepare(run.call)
    check = oracle.build(1, None, quick=True)[0].check
    doc = cli_json(["oracle", "--dim", "3", "--field", "F:2", "--json"])
    check(json.dumps(doc))
    with pytest.raises(CheckFailed, match="nilpotent"):
        check(make_idempotent(doc))
    # the same class listed twice leaves one reference class unmatched
    doc["classes"][1]["file"] = doc["classes"][0]["file"]
    with pytest.raises(CheckFailed, match="matches no reference class"):
        check(json.dumps(doc))


def test_iso_checks_reject_altered_witness_and_missing_certificate(tmp_path):
    ops = Iso().build(3, str(tmp_path), quick=True)
    outputs = [cli_json(op.argv) for op in ops]
    for op, doc in zip(ops, outputs):
        op.check(json.dumps(doc))
    negative = outputs[0]
    del negative["certificate"]
    with pytest.raises(CheckFailed, match="certificate"):
        ops[0].check(json.dumps(negative))
    for op, doc in zip(ops[1:], outputs[1:]):
        doc["witness"][0][0] = str((int(doc["witness"][0][0]) + 1) % 5)
        with pytest.raises(CheckFailed, match="witness"):
            op.check(json.dumps(doc))


def test_catalog_checks_reject_wrong_flag_and_failed_pair():
    ops = Catalog().build(1, None, quick=True)
    listing, verify = cli_json(ops[0].argv), cli_json(ops[1].argv)
    ops[0].check(json.dumps(listing))
    ops[1].check(json.dumps(verify))
    listing[0]["associative"] = not listing[0]["associative"]
    with pytest.raises(CheckFailed, match="associativity"):
        ops[0].check(json.dumps(listing))
    verify["pairs"][0]["ok"] = False
    verify["ok"] = True
    with pytest.raises(CheckFailed, match="certified"):
        ops[1].check(json.dumps(verify))


def test_own_arithmetic():
    # a² = b, ab = c is Jordan and nilpotent; a² = a is not nilpotent
    good = Table.from_products(5, 3, [(1, 1, 2, 1), (1, 2, 3, 1)])
    assert is_jordan(good) and is_nilpotent(good)
    assert not is_nilpotent(Table.from_products(5, 1, [(1, 1, 1, 1)]))
    assert parse_algebra(good.render()).t == good.t
    m = [[1, 2, 0], [0, 1, 3], [1, 0, 1]]
    other = conjugate(good, m)
    assert is_witness(other, good, m)
    assert not is_witness(good, other, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


IDLE = {
    "classify": ["groebner.buchberger_calls", "isotest.decide_calls",
                 "tables.pairs.fingerprint"],
    "iso": ["orbits.aut_calls", "cohomology.h2_space_calls",
            "classify.dedup_calls", "tables.pairs.fingerprint"],
    "catalog": ["homsearch.witness_calls", "homsearch.find_all_calls",
                "orbits.aut_calls", "cohomology.h2_space_calls"],
    "oracle": ["groebner.buchberger_calls", "orbits.aut_calls",
               "cohomology.h2_space_calls", "isotest.decide_calls"],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_mode(name):
    result = run.run_workload(name, seed=2, seconds=1, trace=1, quick=True)
    assert result["correct"] and result["failed"] == 0
    # one untraced and one traced round of the same calls
    assert result["attempted"] > 0 and result["attempted"] % 2 == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    for key in IDLE[name]:
        assert metrics[key] == 0, key
    assert metrics["trace.spans"] > 0


def test_untraced_run_reports_the_end_to_end_metrics():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (name, w.why) for name, w in WORKLOADS.items()]
    result = run.run_workload("catalog", seed=1, seconds=1, trace=0, quick=True)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_timed_leaves_the_handler_out_of_the_call():
    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass
        return "done"
    result, wall, ref = speed.timed(busy, 2.5 * speed.PERIOD)
    assert result == "done"
    # busy() runs to a fixed end, so the kernels timed inside it (at PERIOD
    # and 2 * PERIOD) take their time out of the call's own
    assert 2 * speed.PERIOD < wall < 2.5 * speed.PERIOD
    assert ref > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
