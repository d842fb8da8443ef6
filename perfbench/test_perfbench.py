"""The benchmark's own checks.

Run from the repository root:  python3 -m pytest perfbench

The same seed gives identical inputs and output digests, another seed gives
other inputs, and the per-layer counts repeat exactly; the metric lists in
BENCHMARK.json match the ones the benchmark prints.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import metrics  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    return {name: workloads.WORKLOADS[name](NullTracer(), str(workdir))
            for name in NAMES}


def round_for(wl, seed):
    ops = wl.make_ops(random.Random(seed))
    for op in ops:
        op.want = wl.oracle(NullTracer(), op)
    return ops


def fingerprint(ops) -> str:
    return hashlib.sha256(
        repr([(op.label, op.size, op.arg) for op in ops]).encode()).hexdigest()


def digest(wl, ops) -> str:
    h = hashlib.sha256()
    [loop] = worker.timed_loop(wl, ops, [NullTracer()], 0.0, h)
    assert loop["failed"] == 0, loop["shown"]
    assert loop["rounds"] == 1
    return h.hexdigest()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_and_digest(built, name):
    wl = built[name]
    first, second = round_for(wl, 3), round_for(wl, 3)
    assert fingerprint(first) == fingerprint(second)
    assert digest(wl, first) == digest(wl, second)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_other_inputs(built, name):
    wl = built[name]
    first, second = round_for(wl, 3), round_for(wl, 4)
    assert fingerprint(first) != fingerprint(second)
    # the size ramp is fixed; only contents follow the seed
    assert len(first) == len(second)


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(built, name):
    wl = built[name]
    counts = wl.counts(round_for(wl, 5))
    assert counts == wl.counts(round_for(wl, 5))
    expected = {
        "calculus": {"terms.nodes", "terms.distinct", "types.value_size.in"},
        "rational": {"terms.nodes", "algebra.forest_depth.max", "rational.positions"},
        "registers": {"registers.updates", "algebra.forest_depth.max",
                      "registers.wide_nodes"},
        "transduction": {"logic.universe_in", "logic.universe_out", "fileio.bytes"},
    }[name]
    assert all(counts[k] > 0 for k in expected), counts
    known = {n for n, _, _ in metrics.COUNT_METRICS}
    assert set(counts) <= known


def test_rational_stages_run_the_whole_pipeline(built):
    wl = built["rational"]
    counts = wl.counts(round_for(wl, 6))
    assert counts["rational.live_ratio"] == 1


def test_self_times_add_up_to_the_outer_span():
    tr = Tracer()
    tr.call("op", lambda: [tr.call("inner", sum, range(n)) for n in (10, 1000)])
    summary = tr.summary()
    op, inner = summary["op"], summary["inner"]
    assert inner["calls"] == 2 and op["calls"] == 1
    assert op["self_s"] + inner["self_s"] == pytest.approx(op["total_s"])
    assert op["self_s"] >= 0


def test_failed_calls_are_counted():
    tr = Tracer()
    with pytest.raises(ZeroDivisionError):
        tr.call("div", lambda: 1 / 0)
    assert tr.summary()["div"]["errors"] == 1


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        metrics.per_layer_specs()
