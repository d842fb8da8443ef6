"""One workload in one fresh interpreter: set up, then a closed timed loop.

run.py starts this file and reads its standard output.  The first line,
``READY``, marks the end of set-up (import, building the workload's objects,
warm-up), so the parent can time set-up from process spawn.  With
``--setup-only`` the process exits there.  Otherwise it generates the round's
inputs from the seed, computes every op's expected output with the oracle,
runs the timed loop and prints one JSON object as its last line.

The loop is closed: one client, and the next op starts when the previous one
returns.  Each output is checked against its oracle between ops, outside the
op's timing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# tail percentile: the highest of these with at least ten of a round's ops
# beyond it, so its rank does not depend on how many rounds a run fits
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_FAILURES_SHOWN = 3
KERNEL_EVERY_S = 0.05    # how often the speed kernel runs between ops


def tail_percentile(round_ops: int) -> float:
    for p in TAIL_LADDER:
        if round_ops * (1 - p / 100) >= 10:
            return p
    return TAIL_LADDER[-1]


def nearest_rank(sorted_values: list[float], p: float) -> float:
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def run_round(wl, ops, tr, res: dict, digest=None) -> None:
    """Run every op once, checking each output; append to ``res``.

    Between ops, outside their time, the speed kernel runs every
    KERNEL_EVERY_S; the round's speed comes from its median.
    """
    traced = tr.enabled
    wall0, cpu0 = time.perf_counter(), time.process_time()
    kernel = [speed.kernel_s()]
    last = time.perf_counter()
    for i, op in enumerate(ops):
        tr.op = i
        err = None
        start = time.perf_counter()
        try:
            out = tr.call("op", wl.run, tr, op) if traced else wl.run(tr, op)
        except Exception as exc:
            err = exc
        res["lat"].append(time.perf_counter() - start)
        if err is None:
            try:
                ok = wl.check(op, out)
            except Exception as exc:
                ok, err = False, exc
        else:
            ok = False
        res["ok"].append(ok)
        if not ok and len(res["shown"]) < MAX_FAILURES_SHOWN:
            got = repr(err) if err is not None else repr(out)
            res["shown"].append(f"{op.label} size {op.size}: input {op.arg!r:.200} "
                                f"expected {op.want!r:.200} got {got:.200}")
        if digest is not None:
            text = wl.render(op, out) if err is None else f"!{type(err).__name__}"
            digest.update(text.encode() + b"\n")
        if traced:
            wl.probe(tr, op)
        if time.perf_counter() - last >= KERNEL_EVERY_S:
            kernel.append(speed.kernel_s())
            last = time.perf_counter()
    tr.op = None
    res["speed"].append(speed.speed(kernel))
    res["rounds"] += 1
    res["wall_s"] += time.perf_counter() - wall0
    res["cpu_s"] += time.process_time() - cpu0


def timed_loop(wl, ops, tracers, seconds: float, digest=None) -> list[dict]:
    """Replay whole rounds of ``ops`` for about ``seconds``; at least one round.

    Rounds cycle through ``tracers``, so a traced run alternates untraced and
    traced rounds and a slow phase of the machine hits both alike.  The
    digest covers the first round.  Returns one result per tracer.
    """
    results = [{"lat": [], "ok": [], "shown": [], "speed": [], "rounds": 0,
                "wall_s": 0.0, "cpu_s": 0.0} for _ in tracers]
    start = time.perf_counter()
    cycles = 0
    while True:
        for tr, res in zip(tracers, results):
            run_round(wl, ops, tr, res, digest if cycles == 0 and res is results[0] else None)
        cycles += 1
        # stop when less than half a cycle's time is left, so a run ends
        # within half a cycle of ``seconds``
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= seconds:
            break
    for res in results:
        res["failed"] = res["ok"].count(False)
    return results


def summarise(loop: dict, round_ops: int) -> dict:
    """Each metric is the median over the run's rounds of its per-round value.

    Every round replays the same inputs, so rounds differ only by how fast
    the machine ran during them.  Each round's times are scaled by the
    machine speed measured during it (see speed.py), and the median keeps a
    slow phase the kernel missed from moving the result.  ``raw`` holds the
    same metrics unscaled.
    """
    p = tail_percentile(round_ops)
    rounds = []   # (ops per second, median latency, tail latency, speed)
    for r, i in enumerate(range(0, len(loop["lat"]), round_ops)):
        lat = loop["lat"][i:i + round_ops]
        rounds.append((sum(loop["ok"][i:i + round_ops]) / sum(lat),
                       statistics.median(lat), nearest_rank(sorted(lat), p),
                       loop["speed"][r]))

    def scaled(scale) -> dict:
        med = statistics.median
        return {"ops_per_s": med(x[0] / scale(x) for x in rounds),
                "op_p50_ms": med(x[1] * scale(x) for x in rounds) * 1000,
                "op_tail_ms": med(x[2] * scale(x) for x in rounds) * 1000}

    return {
        **scaled(lambda x: x[3]),
        "raw": scaled(lambda x: 1.0),
        "speed": statistics.median(x[3] for x in rounds),
        "tail_percentile": p,
        "samples": len(loop["lat"]),
    }


def input_properties(ops) -> dict:
    sizes = sorted(op.size for op in ops)
    distinct = len({id(op.obj) for op in ops})
    return {
        "ops_per_round": len(ops),
        "size_quartiles": [sizes[0], *statistics.quantiles(sizes, n=4), sizes[-1]],
        "distinct_objects": distinct,
        "reuse_share": (len(ops) - distinct) / len(ops),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for spans and scratch files")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import listfn
    import listfn.cli  # noqa: F401  -- the command's import cost belongs in setup_s
    t1 = time.perf_counter()
    if Path(listfn.__file__).resolve().parent != (SRC / "listfn").resolve():
        print(f"listfn imported from {listfn.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import metrics
    import workloads
    from spans import NullTracer, Tracer

    out_dir = Path(args.out)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tr = Tracer() if args.trace else NullTracer()
        tr.record("import", t0, t1)
        wl = workloads.WORKLOADS[args.workload](tr, str(workdir))
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        ops = wl.make_ops(random.Random(args.seed))
        for i, op in enumerate(ops):
            tr.op = i
            op.want = wl.oracle(tr, op)
        tr.op = None

        digest = hashlib.sha256()
        # a traced run alternates untraced and traced rounds; the ratio of
        # their throughputs is the tracing overhead
        tracers = [NullTracer(), tr] if args.trace else [NullTracer()]
        loops = timed_loop(wl, ops, tracers, args.seconds, digest)
        loop = loops[0]
        result = {
            "workload": wl.name,
            "attempted": sum(len(x["lat"]) for x in loops),
            "failed": sum(x["failed"] for x in loops),
            "failures_shown": [s for x in loops for s in x["shown"]],
            "digest": digest.hexdigest(),
            "inputs": input_properties(ops),
            "loop": {k: loop[k] for k in ("rounds", "wall_s", "cpu_s")},
            **summarise(loop, len(ops)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if args.trace:
            summary = tr.summary()
            op_span = summary["op"]
            result["per_layer"] = metrics.per_layer_values(
                summary, wl.aliases, wl.counts(ops), {
                    "trace.overhead_ratio":
                        summarise(loops[1], len(ops))["ops_per_s"] / result["ops_per_s"],
                    "trace.unattributed_ratio": op_span["self_s"] / op_span["total_s"],
                })
            tr.dump(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
