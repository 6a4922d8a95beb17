"""Output checks of one sweep.

A sweep passes only when the CLI exits with 0, every file it names passes
the trace invariants (``GapTrace.from_csv`` for per-seed traces, the same
rules for aggregate and compare tables), every run reached the budget, and
the headline algorithm's final gap lies below its first recorded gap. For
the reference seed the seed-mean final ``gap_linear`` of every algorithm
must also match ``reference.json``; on the pb workloads, whose seeds only
relabel one game, the deterministic algorithms must match it on every seed.

Failures are reported per (algorithm, seed) run, so one bad run is counted
instead of aborting the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Algorithms that draw no random numbers: on a relabeled game they retrace
# the reference iterates up to summation order.
DETERMINISTIC = ("eg", "pda", "oomd-l2", "oomd-entropy", "rm+")


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_reference(path=REFERENCE_PATH):
    with open(path) as f:
        return json.load(f)


def read_table(path):
    """Header names and float columns of a CSV written by the harness."""
    with open(path) as f:
        names = f.readline().strip().split(",")
        rows = [line.split(",") for line in f.read().splitlines() if line]
    if not rows or any(len(r) != len(names) for r in rows):
        raise ValueError(f"{os.path.basename(path)}: empty or ragged table")
    data = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{os.path.basename(path)}: non-finite value")
    return dict(zip(names, data.T))


def _check_trace(GapTrace, path, budget):
    trace = GapTrace.from_csv(path)
    read_table(path)                                    # finiteness, shape
    if len(trace) == 0 or trace.evals[-1] < budget:
        raise ValueError(f"{os.path.basename(path)}: trace stops before the budget")
    return trace


def _check_gaps(table, columns, path):
    for name in columns:
        if np.any(table[name] < 0.0):
            raise ValueError(f"{os.path.basename(path)}: negative {name}")


class SweepCheck:
    """Result of checking one sweep's outputs."""

    def __init__(self, runs):
        self.failures = {run: None for run in runs}    # (algo, seed) -> reason
        self.finals = {}                               # algo -> seed-mean final gap_linear
        self.first_gap = {}                            # algo -> seed-mean first gap_last
        self.digests = {}                              # file name -> sha256

    def fail(self, algo, seeds, reason):
        for seed in seeds:
            if self.failures.get((algo, seed)) is None:
                self.failures[(algo, seed)] = reason

    def fail_all(self, reason):
        for algo, seed in self.failures:
            self.fail(algo, [seed], reason)

    @property
    def failed(self):
        return sum(reason is not None for reason in self.failures.values())

    @property
    def reasons(self):
        return sorted({r for r in self.failures.values() if r is not None})


def check_sweep(GapTrace, wl, label, exit_code, written, seed, reference):
    """Check the files a sweep wrote; ``written`` is the list the CLI printed."""
    check = SweepCheck([(a, s) for a in wl.algorithms for s in wl.run_seeds])
    if exit_code != 0:
        check.fail_all(f"exit code {exit_code}")
        return check
    for path in written:
        if os.path.isfile(path):
            check.digests[os.path.basename(path)] = sha256(path)
    for algo in wl.algorithms:
        try:
            if wl.command == "run":
                _check_run_files(GapTrace, wl, label, algo, written, check)
            else:
                _check_compare_columns(wl, algo, written, check)
        except (OSError, ValueError, KeyError) as err:
            check.fail(algo, wl.run_seeds, str(err))
    _check_progress(wl, check)
    _check_reference(wl, seed, reference, check)
    return check


def _check_run_files(GapTrace, wl, label, algo, written, check):
    names = {os.path.basename(p): p for p in written}
    traces, finals, firsts = [], [], []
    for seed in wl.run_seeds:
        name = f"{label}_{algo}_seed{seed}.csv"
        if name not in names:
            raise ValueError(f"missing {name}")
        try:
            trace = _check_trace(GapTrace, names[name], wl.budget)
        except ValueError as err:
            check.fail(algo, [seed], str(err))
            continue
        traces.append(trace)
        finals.append(trace.gap_linear[-1])
        firsts.append(trace.gap_last[0])
    name = f"{label}_{algo}_aggregate.csv"
    if name not in names:
        raise ValueError(f"missing {name}")
    agg = read_table(names[name])
    _check_gaps(agg, [c for c in agg if c.startswith("gap_")], name)
    if len(traces) == len(wl.run_seeds):
        rows = min(len(t) for t in traces)
        expect = np.mean([t.gap_linear[rows - 1] for t in traces])
        if len(agg["evals_mean"]) != rows or not np.isclose(
                agg["gap_linear_mean"][-1], expect, rtol=1e-12, atol=0.0):
            raise ValueError(f"{name}: does not aggregate the per-seed traces")
        check.finals[algo] = float(np.mean(finals))
        check.first_gap[algo] = float(np.mean(firsts))


def _check_compare_columns(wl, algo, written, check):
    if len(written) != 1:
        raise ValueError(f"compare wrote {len(written)} files, expected one")
    path = written[0]
    table = read_table(path)
    grid = np.arange(wl.eval_every, wl.budget + 1, wl.eval_every, dtype=np.float64)
    if not np.array_equal(table["evals"], grid):
        raise ValueError(f"{os.path.basename(path)}: evals column is not the cadence grid")
    columns = [f"{algo}_{mode}" for mode in ("last", "uniform", "linear", "quadratic")]
    _check_gaps(table, columns, path)
    check.finals[algo] = float(table[f"{algo}_linear"][-1])
    check.first_gap[algo] = float(table[f"{algo}_last"][0])


def _check_progress(wl, check):
    algo = wl.headline
    if algo in check.finals and not check.finals[algo] < check.first_gap[algo]:
        check.fail(algo, wl.run_seeds, f"{algo} final gap {check.finals[algo]:.6g} is not "
                                       f"below its first gap {check.first_gap[algo]:.6g}")


def _check_reference(wl, seed, reference, check):
    ref = reference["workloads"].get(wl.name, {}).get("final_gap_linear", {})
    rtol = reference["rtol"]
    for algo, value in check.finals.items():
        applies = seed == reference["seed"] or (wl.family == "pb" and algo in DETERMINISTIC)
        if applies and algo in ref and not np.isclose(value, ref[algo], rtol=rtol, atol=0.0):
            check.fail(algo, wl.run_seeds, f"{algo} final gap {value!r} differs from the "
                                           f"reference {ref[algo]!r}")
