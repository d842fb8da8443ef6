"""Benchmark for listfn: four seeded workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                 # every workload, one table

Each workload runs in fresh interpreters started by this script: a few that
only set up, to time set-up from process spawn, then one that also runs the
timed loop.  They run one after another, so the measured process never
shares the machine with another of ours.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Everything else a run learns (provenance, input properties,
digest, the full per-layer table) is printed above it and written to
``perfbench/_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from metrics import END_TO_END, FAIL_RATIO, per_layer_specs  # noqa: E402

WORKLOADS = ("calculus", "rational", "registers", "transduction")
SETUPS = 3               # set-ups timed per run; setup_s is their median
DEADLINE_S = 170         # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args: argparse.Namespace, setup_only: bool, deadline: float):
    """Start a worker; return it, its set-up time and any output after READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # set iteration order follows the string hash; fixing it per seed makes
    # a run repeat exactly
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while b"\n" not in buf:
            if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                stop(proc)
                raise BenchError("set-up did not finish before the deadline")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                break
            buf += chunk
    setup = time.perf_counter() - start
    line, _, rest = buf.partition(b"\n")
    if line != b"READY":
        stop(proc)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup, rest


def stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def finish(proc: subprocess.Popen, rest: bytes, deadline: float) -> bytes:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return rest + out


def run_workload(args: argparse.Namespace) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    for _ in range(SETUPS - 1):
        proc, setup, rest = spawn(args, True, deadline)
        finish(proc, rest, deadline)
        setups.append(setup)
    proc, setup, rest = spawn(args, False, deadline)
    setups.append(setup)
    lines = finish(proc, rest, deadline).decode().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def report(args: argparse.Namespace, r: dict, provenance: dict) -> dict:
    """Print a workload's human-readable block; return its result-line metrics."""
    fail_ratio = r["failed"] / r["attempted"]
    units = {name: unit for name, unit, _ in END_TO_END}
    print(f"== {r['workload']}  seed {args.seed}  trace {args.trace}")
    for name, unit, _ in END_TO_END:
        note = f"  (raw {r['raw'][name]:.6g})" if name in r["raw"] else ""
        if name == "op_tail_ms":
            note += (f" p{r['tail_percentile']:g} of each round; median of "
                     f"{r['loop']['rounds']} rounds, {r['samples']} samples")
        elif name == "setup_s":
            note += " median of " + ", ".join(f"{s:.4f}" for s in r["setup_samples_s"])
        print(f"  {name:<13} {r[name]:>12.6g} {unit}{note}")
    print(f"  {FAIL_RATIO[0]:<13} {fail_ratio:>12.6g} {FAIL_RATIO[1]}"
          f"  ({r['failed']} of {r['attempted']} ops)")
    for line in r["failures_shown"]:
        print(f"  FAILED {line}")
    loop, inputs = r["loop"], r["inputs"]
    print(f"  loop          wall {loop['wall_s']:.3f} s, cpu {loop['cpu_s']:.3f} s, "
          f"{loop['rounds']} rounds of {inputs['ops_per_round']} ops, "
          f"machine speed {r['speed']:.4f} of the reference")
    print(f"  inputs        size min/q1/median/q3/max {inputs['size_quartiles']}, "
          f"{inputs['distinct_objects']} distinct objects, "
          f"reuse share {inputs['reuse_share']:.4f}")
    print(f"  digest        {r['digest']}")
    print("  provenance    " + ", ".join(f"{k} {v}" for k, v in provenance.items()))
    if args.trace:
        specs = per_layer_specs()
        for name, unit, _ in specs:
            print(f"  {name:<44} {r['per_layer'][name]:>12.6g} {unit}")
        metrics = {name: {"value": r["per_layer"][name], "unit": unit}
                   for name, unit, _ in specs}
    else:
        metrics = {name: {"value": r[name], "unit": units[name]}
                   for name, _, _ in END_TO_END}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{r['workload']}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**r, "fail_ratio": fail_ratio,
                                "provenance": provenance}, indent=1))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be at least 0 and --seconds above 0")
    if not (ROOT / "src" / "listfn" / "__init__.py").is_file():
        print(f"no listfn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    provenance = {"python": platform.python_version(), "nproc": os.cpu_count(),
                  "commit": git_commit()}
    for name in names:
        try:
            r = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as err:
            print(f"{name}: {err}", file=sys.stderr)
            return 3
        provenance["calibration_s"] = statistics.median(
            speed.kernel_s() for _ in range(200))
        shown = report(args, r, provenance)
        attempted += r["attempted"]
        failed += r["failed"]
        if len(names) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
