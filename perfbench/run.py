"""Benchmark of jordannil through its command line, stdlib only.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --workload iso --quick  # dim-3 inputs, one round

Run it from anywhere inside a checkout: the package is imported from the
checkout's src/.  A run makes whole rounds of CLI calls until the next
round would end after --seconds; before each round it sets up the inputs
three times (import plus building the input files).  Every call imports
jordannil afresh and goes through `jordannil.cli.main`, so each pays what a
new process pays and no state is kept between calls.  Outputs are checked
after the rounds.

Times are reported in reference seconds (speed.py): each call's wall time
divided by the time of a fixed reference kernel run around and during it,
so that the drifting speed of a shared machine cancels out.  --trace 0
reports the end-to-end metrics: setup_s (median set-up), wall_s (a round
with each call at its median over the run's rounds) and peak_rss_mb.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of spans.py plus the tracing overhead; the spans of the last traced
round go to .perfbench_out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

from checks import CheckFailed
from spans import LAYERS, Tracer
from speed import timed
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS_PER_ROUND = 3

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "count"


def fresh_cli():
    """Import jordannil.cli from scratch, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "jordannil" or m.startswith("jordannil.")]:
        del sys.modules[name]
    cli = importlib.import_module("jordannil.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"jordannil was imported from {cli.__file__}")
    return cli


def package_modules():
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("jordannil.")}


def call(argv, tracer=None):
    """(exit code, stdout) of one CLI call; exit code None if it raised."""
    cli = fresh_cli()
    if tracer is not None:
        tracer.install(package_modules())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed operation; keep measuring
            traceback.print_exc()
            rc = None
    if rc != 0:
        sys.stderr.write(f"{' '.join(argv)}: exit {rc}\n{err.getvalue()}")
    return rc, out.getvalue()


def run_round(ops, tracer=None):
    """(reference seconds, result) of each call of a round."""
    walls, refs, results = [], [], []
    for op in ops:
        result, wall, ref = timed(call, op.argv, tracer)
        walls.append(wall)
        refs.append(ref)
        results.append(result)
    print(f"round {'traced' if tracer else 'untraced'} wall "
          + " ".join(f"{t:.4f}" for t in walls) + " ref "
          + " ".join(f"{t:.4f}" for t in refs), file=sys.stderr)
    return refs, results


def median_round(rounds):
    """A round with each call at its median over the rounds."""
    return sum(statistics.median(column) for column in zip(*rounds))


def setup(workload, seed, workdir, quick):
    """Import plus building the inputs once; (reference seconds, ops)."""
    def build():
        fresh_cli()
        return workload.build(seed, tempfile.mkdtemp(dir=workdir), quick)
    ops, _, ref = timed(build)
    return ref, ops


def check_outputs(workload, ops, rounds):
    """(failed operations, first check failure or None)."""
    failed = 0
    checked = set()
    problem = None
    try:
        workload.prepare(call)
    except CheckFailed as exc:
        problem = f"reference: {exc}"
    for results in rounds:
        for idx, (rc, text) in enumerate(results):
            if rc != 0:
                failed += 1
                continue
            if (idx, text) in checked or problem:
                continue
            try:
                ops[idx].check(text)
            except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                problem = f"{' '.join(ops[idx].argv)}: {exc!r}"
            checked.add((idx, text))
    return failed, problem


def run_workload(name, seed, seconds, trace, quick):
    workload = WORKLOADS[name]()
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-",
                               dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        tracer = Tracer() if trace else None
        setups, refs, traced_refs, layer_metrics, rounds = [], [], [], [], []
        t_start = perf_counter()
        while True:
            t_round = perf_counter()
            # set-ups are spread over the run, like the rounds, so that a
            # burst of noise at its start does not decide setup_s
            for _ in range(SETUPS_PER_ROUND):
                ref, ops = setup(workload, seed, workdir, quick)
                setups.append(ref)
            times, results = run_round(ops)
            refs.append(times)
            rounds.append(results)
            if len(refs) == 1:
                # later rounds re-import the package again and again, which
                # grows the heap a little each time; one round is what a
                # user's process holds
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.clear()
                times, results = run_round(ops, tracer)
                traced_refs.append(times)
                rounds.append(results)
                layer_metrics.append(tracer.metrics())
            if quick:
                break
            now = perf_counter()
            if now - t_start + (now - t_round) > seconds:
                break
        failed, problem = check_outputs(workload, ops, rounds)
        if tracer is not None:
            outdir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(outdir, exist_ok=True)
            tracer.write(os.path.join(outdir, f"spans-{name}-seed{seed}.jsonl.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if problem:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer is None:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": median_round(refs),
                   "peak_rss_mb": peak_rss_mb}
    else:
        metrics = {key: statistics.median_low(m[key] for m in layer_metrics)
                   for key in layer_metrics[0]}
        metrics["trace.wall_s"] = median_round(traced_refs)
        metrics["trace.overhead_s"] = (median_round(traced_refs)
                                       - median_round(refs))
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        for layer in LAYERS:
            share = metrics[f"{layer}.self_s"] / total if total else 0.0
            print(f"{name}: {layer:<11} self {metrics[f'{layer}.self_s']:9.4f} s"
                  f"  {100 * share:5.1f} %")
    return {"correct": problem is None,
            "attempted": sum(len(r) for r in rounds),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": _unit(k)}
                        for k, v in metrics.items()}}


def run_all(args):
    """Each workload in its own single-threaded process, one after another."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        summary[name] = result
        shown = "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in result["metrics"].items()
                          if not args.trace or k.endswith(".self_s")
                          or k.startswith("trace."))
        print(f"{name}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}  {shown}")
    print(json.dumps(summary))
    return 0 if all(r["correct"] and not r["failed"]
                    for r in summary.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="dim-3 inputs and one round, for the tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jordannil", "cli.py")):
        print(f"error: no jordannil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          args.trace, args.quick)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
