#!/usr/bin/env python3
"""Benchmark of visolve: end-to-end metrics, or per-layer metrics from a traced sweep.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload pb1000-vr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --write-reference

With ``--trace 0`` a run times, within ``--seconds``:

* ``setup_s``: the instance load (pb) or generation (seg) plus ``make_solver``
  for each of the workload's algorithms, repeated; the median is reported;
* ``sweep_s``: the in-process ``cli.main([...])`` call of the workload's
  sweep, from argv to CSVs on disk, repeated; the median is reported;
* ``time_to_gap_s``: ``visolve.run(..., stop_when_gap_below=target)`` of the
  headline algorithm on run seeds 0..k-1, each repeated; the mean over seeds
  of each seed's median;

and reports ``final_gap`` (seed-mean final ``gap_linear`` of the headline
algorithm in the sweep's output), ``peak_rss_mb`` and ``run_ok_ratio``.
Times are in reference seconds: each sample's wall time is scaled by a
machine-speed probe taken around it (``speed.py``); the medians of the raw
wall times are in the meta line.
With ``--trace 1`` it alternates untraced sweeps with sweeps in which every
layer boundary is wrapped in spans, reports the per-layer metrics from the
first traced sweep and ``trace_overhead`` from the two medians, and writes
that sweep's spans to ``.perfbench_work/spans/``.

Every sweep's outputs are checked (see ``checks.py``); a run whose check
fails counts in ``failed``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it lists the metrics as ``name value unit``, and the one before that
(``meta {...}``) records the run's environment, the tail percentiles and
the outputs' sha256 digests.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import meta  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import ALL_ALGORITHMS, WORKLOADS, prepare, sweep_argv  # noqa: E402

# Shares of --seconds spent timing set-up and time to gap; sweeps get the rest.
SETUP_SHARE, TTG_SHARE = 0.2, 0.3
MIN_SAMPLES = 5


def import_package():
    """The package's modules, imported from this checkout's ``src/``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "visolve", "__init__.py")):
        raise SystemExit(f"perfbench: no visolve sources under {src}")
    sys.path.insert(0, src)
    import visolve
    from visolve import (averaging, cli, harness, metrics, oracles, problems, rng, sets,
                         solvers)
    if not os.path.abspath(visolve.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported visolve from {visolve.__file__}, not {src}")
    mods = SimpleNamespace(averaging=averaging, cli=cli, harness=harness, metrics=metrics,
                           oracles=oracles, problems=problems, rng=rng, sets=sets,
                           solvers=solvers)
    return visolve, mods


def setup_once(vs, wl, inputs):
    """Build the problem and a solver of each algorithm, as a run does before
    its first step."""
    problem = inputs.load()
    for algo in wl.algorithms:
        vs.make_solver(problem, algo, seed=0)
    return problem


def sweep(mods, wl, inputs, outdir):
    """Run the sweep through ``cli.main``; returns (exit_code, files written)."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            code = mods.cli.main(sweep_argv(wl, inputs, outdir))
    except Exception:  # a crashing sweep is counted as failed runs, not fatal
        traceback.print_exc()
        code = "raised"
    return code, [line for line in printed.getvalue().splitlines() if line]


def time_to_gap(vs, wl, problem, seed):
    """Run the headline algorithm until its last-iterate gap reaches the
    target; returns (evals, reached). A run that raises or ends at its budget
    above the target is timed like one that reaches it."""
    try:
        trace = vs.run(problem, wl.headline, wl.ttg_budget, seed, wl.ttg_eval_every,
                       stop_when_gap_below=wl.target)
    except Exception:  # counted as a failed run
        traceback.print_exc()
        return 0, False
    reached = len(trace) > 0 and trace.gap_last[-1] <= wl.target
    if not reached:
        print(f"perfbench: {wl.headline} seed {seed} did not reach gap {wl.target}",
              file=sys.stderr)
    return int(trace.evals[-1]) if len(trace) else 0, reached


class Tally:
    """Attempted and failed (algorithm, seed) runs, with the failure reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons = set()

    def add_sweep(self, check):
        self.attempted += len(check.failures)
        self.failed += check.failed
        self.reasons.update(check.reasons)

    def add_run(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.add(reason)


def checked_sweep(vs, mods, wl, inputs, outdir, seed, reference, tally, first_digests,
                  timer):
    """One timed sweep with its output check; returns (wall_s, scaled_s, check)."""
    shutil.rmtree(outdir, ignore_errors=True)
    wall, scaled, (code, written) = timer(sweep, mods, wl, inputs, outdir)
    check = checks.check_sweep(vs.GapTrace, wl, inputs.label, code, written, seed, reference)
    if first_digests is not None and check.digests != first_digests:
        check.fail_all("sweep output bytes differ between repetitions")
    tally.add_sweep(check)
    return wall, scaled, check


def end_to_end(vs, mods, wl, seed, seconds, workdir, reference, tally):
    inputs = prepare(vs, wl, seed, workdir)
    outdir = os.path.join(workdir, "out")
    timer = SpeedProbe(wl.blas_probe).timed
    # One phase per metric, each time-boxed to its share of the run. The
    # threaded sweeps come last: the seed threads and the BLAS threads they
    # leave spinning would otherwise slow the single-threaded phases. Every
    # sample is kept as (wall_s, scaled_s); the metrics are scaled (speed.py).
    setups = []
    start = time.perf_counter()
    while len(setups) < MIN_SAMPLES or time.perf_counter() - start < SETUP_SHARE * seconds:
        wall, scaled, problem = timer(setup_once, vs, wl, inputs)
        setups.append((wall, scaled))

    per_seed = {k: [] for k in range(wl.ttg_seeds)}
    start = time.perf_counter()
    while not per_seed[0] or time.perf_counter() - start < TTG_SHARE * seconds:
        for k, samples in per_seed.items():
            wall, scaled, (_, reached) = timer(time_to_gap, vs, wl, problem, k)
            tally.add_run(reached, f"{wl.headline} seed {k} missed the gap target")
            samples.append((wall, scaled))

    sweeps, first = [], None
    start = time.perf_counter()
    budget = (1.0 - SETUP_SHARE - TTG_SHARE) * seconds
    while len(sweeps) < MIN_SAMPLES or time.perf_counter() - start < budget:
        wall, scaled, check = checked_sweep(vs, mods, wl, inputs, outdir, seed, reference,
                                            tally, first and first.digests, timer)
        sweeps.append((wall, scaled))
        first = first or check

    def median(samples, which):
        return statistics.median(sample[which] for sample in samples)

    def ttg(which):
        return statistics.fmean(median(samples, which) for samples in per_seed.values())

    final = first.finals.get(wl.headline)
    metrics = {
        "setup_s": (median(setups, 1), "s"),
        "sweep_s": (median(sweeps, 1), "s"),
        "time_to_gap_s": (ttg(1), "s"),
        "final_gap": (final, "gap"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "run_ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    info = {"wall_s": {"setup_s": median(setups, 0), "sweep_s": median(sweeps, 0),
                       "time_to_gap_s": ttg(0)},
            "samples": {"setup_s": setups, "sweep_s": sweeps, "time_to_gap_s": per_seed},
            "sha256": first.digests, "finals": first.finals,
            "digests_match_reference": first.digests == reference["workloads"].get(
                wl.name, {}).get("sha256") if seed == reference["seed"] else None}
    return metrics, info, problem


def write_spans(spans, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as f:
        f.write("sid,parent,name,thread,t0,t1,cpu\n")
        for s in spans:
            f.write(f"{s.sid},{s.parent or ''},{s.name},{s.thread},{s.t0!r},{s.t1!r},"
                    f"{'' if s.cpu is None else repr(s.cpu)}\n")


def traced_sweep(vs, mods, wl, inputs, outdir, seed, reference, tally, first_digests,
                 timer):
    """One sweep with every layer boundary wrapped.

    Returns (scaled_s, spans, unpatched boundaries, bytes written)."""
    rec, missing = layers.instrument(mods)
    try:
        _, scaled, check = checked_sweep(vs, mods, wl, inputs, outdir, seed, reference,
                                         tally, first_digests, timer)
    finally:
        rec.restore()
    size = sum(os.path.getsize(os.path.join(outdir, name)) for name in check.digests)
    return scaled, rec.spans, missing, size


def per_layer(vs, mods, wl, seed, seconds, workdir, reference, tally):
    inputs = prepare(vs, wl, seed, workdir)
    outdir = os.path.join(workdir, "out")
    problem = setup_once(vs, wl, inputs)
    timer = SpeedProbe(wl.blas_probe).timed
    # Untraced and traced sweeps alternate; the spans of the first traced
    # sweep give the layer metrics, the two medians give the tracing overhead.
    untraced, traced, first, recorded = [], [], None, None
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < 0.8 * seconds:
        _, scaled, check = checked_sweep(vs, mods, wl, inputs, outdir, seed, reference,
                                         tally, first and first.digests, timer)
        untraced.append(scaled)
        first = first or check
        scaled, *recording = traced_sweep(vs, mods, wl, inputs, outdir, seed, reference,
                                          tally, first.digests, timer)
        traced.append(scaled)
        recorded = recorded or recording
    spans, missing, bytes_written = recorded
    evals_to_gap, reached = time_to_gap(vs, wl, problem, 0)
    tally.add_run(reached, f"{wl.headline} seed 0 missed the gap target")

    roots = [s for s in spans if s.name == "cli.main"]
    found, tails = layers.layer_metrics(
        spans, algorithms=ALL_ALGORITHMS, wall_s=roots[0].t1 - roots[0].t0,
        overhead=statistics.median(traced) / statistics.median(untraced) - 1.0,
        op_bytes=meta.operator_bytes(problem), evals_to_gap=evals_to_gap,
        bytes_written=bytes_written)
    write_spans(spans, os.path.join(WORK, "spans", f"{wl.name}-seed{seed}.csv.gz"))
    metrics = {name: (m["value"], m["unit"]) for name, m in found.items()}
    info = {"traced_scaled_s": traced, "untraced_scaled_s": untraced, "spans": len(spans),
            "unpatched": missing, "tails": tails, "sha256": first.digests}
    return metrics, info, problem


def run_workload(args):
    vs, mods = import_package()
    wl = WORKLOADS[args.workload]
    reference = checks.load_reference()
    tally = Tally()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, info, problem = measure(vs, mods, wl, args.seed, args.seconds, workdir,
                                         reference, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(meta.run_metadata(ROOT, wl, problem))
    info["failures"] = sorted(tally.reasons)
    print("meta " + json.dumps(info, sort_keys=True, default=str))
    print(wl.name + " " + " ".join(f"{name} {value!r} {unit}"
                                   for name, (value, unit) in metrics.items()))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, end to end and traced, each in its own process so that
    peak memory is the workload's own."""
    correct, attempted, failed, merged = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {name} --trace {trace} exited with "
                                 f"{done.returncode}")
            print(lines[-2], flush=True)
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            merged.update({f"{name}.{key}": m for key, m in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def write_reference():
    """Record the reference seed's final gaps and CSV digests in reference.json."""
    vs, mods = import_package()
    reference = {"seed": 0, "rtol": 1e-6, "workloads": {}}
    os.makedirs(WORK, exist_ok=True)
    for wl in WORKLOADS.values():
        workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
        try:
            inputs = prepare(vs, wl, reference["seed"], workdir)
            code, written = sweep(mods, wl, inputs, os.path.join(workdir, "out"))
            check = checks.check_sweep(vs.GapTrace, wl, inputs.label, code, written,
                                       reference["seed"], reference)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if check.failed:
            raise SystemExit(f"perfbench: {wl.name} fails its checks: {check.reasons}")
        reference["workloads"][wl.name] = {"final_gap_linear": check.finals,
                                           "sha256": check.digests}
    with open(checks.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rerun the reference seed and rewrite reference.json")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
