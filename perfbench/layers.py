"""Per-layer metrics of a traced sweep.

``instrument`` wraps the public callables of every module at the sites
where the package looks them up; ``layer_metrics`` turns the recorded spans
into the ``per_layer`` metrics of ``BENCHMARK.json``. Times are self times
(span duration minus what its child spans cover) or per-call durations;
counts are exact. Self and call times on the pool's threads include the
time a thread waited for the interpreter lock; ``harness.wait_s`` sums that
wait over the seed runs. A ``dl-svrg-eg`` step is one epoch of K inner
iterations.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from recorder import Recorder, self_times
from workloads import metric_tag

MODULES = ("rng", "sets", "oracles", "problems", "metrics", "averaging", "solvers",
           "harness", "cli")
FANOUT = "harness.run_seeds"
SEED_RUN = "solvers.run"
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0)


def instrument(mods):
    """A recorder with every layer boundary of the package's modules (a
    namespace with one attribute per module) patched; call ``restore()`` after.

    Returns ``(recorder, missing)``; ``missing`` names boundaries this
    version of the package does not define.
    """
    averaging, cli, harness, metrics = mods.averaging, mods.cli, mods.harness, mods.metrics
    oracles, problems, rng, sets, solvers = (mods.oracles, mods.problems, mods.rng, mods.sets,
                                             mods.solvers)
    rec = Recorder(fanout=(FANOUT,), cpu_names=(SEED_RUN,))
    plan = [
        (rng.StableRng, "uniform", "rng.uniform", None),
        (sets.FeasibleSet, "project", "sets.project", None),
        (oracles.MatrixGameOracle, "draw", "oracles.draw", None),
        (oracles.MatrixGameOracle, "vr_estimate", "oracles.vr_estimate", None),
        (solvers, "variance_reduced_estimate", "oracles.vr_estimate", None),
        (oracles.SnapshotCache, "at", "oracles.snapshot", None),
        (oracles.SamplingDistribution, "__init__", "oracles.sampling", None),
        (problems.AffineVI, "operator", "problems.operator", None),
        (problems, "load_instance", "problems.load_instance", None),
        (problems, "spectral_norm", "problems.spectral_norm", None),
        (problems.BilinearStructure, "frobenius_norm", "problems.frobenius_norm", None),
        (problems, "synthetic_segmentation", "problems.synthetic_segmentation", None),
        (solvers, "duality_gap_at", "metrics.gap", None),
        (metrics.GapTrace, "to_csv", "metrics.to_csv", None),
        (averaging.AveragingAccumulator, "push", "averaging.push", None),
        (averaging.AveragingAccumulator, "current", "averaging.current", None),
        (solvers, "run", SEED_RUN, lambda args, kwargs, result: args[1]),
        (solvers, "make_solver", "solvers.make_solver", lambda args, kwargs, result: result),
        (harness, "build_instance", "harness.build_instance", None),
        (harness, "run_command", "harness.run_command", None),
        (harness, "compare_command", "harness.compare_command", None),
        (harness, "run_seeds", FANOUT, None),
        (harness, "aggregate", "harness.aggregate", None),
        (harness, "write_table", "harness.write_table", None),
        (cli, "main", "cli.main", None),
    ]
    for cls in vars(solvers).values():
        tag = getattr(cls, "name", None)
        if isinstance(cls, type) and "step" in vars(cls) and tag in solvers.ALGORITHMS:
            plan.append((cls, "step", f"solvers.{metric_tag(tag)}.step", None))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, name, note in plan if not rec.patch(owner, attr, name, note)]
    return rec, missing


def _tail(durations):
    """(percentile, value) at the highest ladder percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    n = len(durations)
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10), 50.0)
    return pct, float(np.percentile(durations, pct)) if n else 0.0


def layer_metrics(spans, *, algorithms, wall_s, overhead, op_bytes, evals_to_gap,
                  bytes_written):
    """Every per-layer metric, plus the tail percentiles behind ``us_tail``.

    ``wall_s`` is the wall time of the traced sweep that recorded ``spans``;
    ``overhead`` is the traced over the untraced sweep wall time, minus 1.
    ``op_bytes`` is the computed number of bytes one operator call reads.
    """
    out, tails = {}, {}
    own, overlap = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(name):
        return [s.t1 - s.t0 for s in by_name.get(name, ())]

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def calls(name, *stats):
        d = dur(name)
        put(f"{name}.calls", len(d), "count")
        if "p50" in stats:
            put(f"{name}.us_p50", 1e6 * statistics.median(d) if d else 0.0, "us")
        if "tail" in stats:
            pct, value = _tail(d)
            put(f"{name}.us_tail", 1e6 * value, "us")
            tails[f"{name}.us_tail"] = {"percentile": pct, "samples": len(d)}

    module_self = defaultdict(float)
    for s in spans:
        module_self[s.name.split(".")[0]] += own[s.sid]
    for module in MODULES:
        put(f"{module}.self_s", module_self[module], "s")

    calls("rng.uniform", "p50")
    calls("sets.project", "p50", "tail")
    calls("oracles.draw", "p50", "tail")
    calls("oracles.vr_estimate", "p50", "tail")
    calls("oracles.snapshot", "p50")
    steps = {s.sid for s in spans if s.name.endswith(".step")}
    refreshes = sum(1 for s in by_name.get("oracles.snapshot", ()) if s.parent in steps)
    draws = len(by_name.get("oracles.draw", ()))
    put("oracles.refresh_ratio", refreshes / draws if draws else 0.0, "ratio")

    calls("problems.operator", "p50", "tail")
    put("problems.operator.bytes", len(dur("problems.operator")) * op_bytes, "bytes-computed")
    put("problems.load_instance.s", sum(dur("problems.load_instance")), "s")
    put("problems.spectral_norm.calls", len(dur("problems.spectral_norm")), "count")
    put("problems.spectral_norm.s", sum(dur("problems.spectral_norm")), "s")

    calls("metrics.gap", "p50", "tail")
    put("metrics.measure_share", sum(dur("metrics.gap")) / wall_s, "ratio")

    calls("averaging.push", "p50")

    runs = by_name.get(SEED_RUN, ())
    evals = defaultdict(int)
    for s in by_name.get("solvers.make_solver", ()):
        if s.note is not None:
            evals[s.note.name] += int(s.note.evals)
    run_wall = defaultdict(float)
    for s in runs:
        run_wall[s.note] += s.t1 - s.t0
    for algo in algorithms:
        tag = metric_tag(algo)
        d = dur(f"solvers.{tag}.step")
        pct, value = _tail(d)
        put(f"solvers.{tag}.steps", len(d), "count")
        put(f"solvers.{tag}.step_us_p50", 1e6 * statistics.median(d) if d else 0.0, "us")
        put(f"solvers.{tag}.step_us_tail", 1e6 * value, "us")
        tails[f"solvers.{tag}.step_us_tail"] = {"percentile": pct, "samples": len(d)}
        put(f"solvers.{tag}.evals", evals[algo], "count")
        put(f"solvers.{tag}.us_per_eval",
            1e6 * run_wall[algo] / evals[algo] if evals[algo] else 0.0, "us/eval")
    put("solvers.evals_to_gap", evals_to_gap, "count")
    put("solvers.make_solver.s", sum(dur("solvers.make_solver")), "s")

    fanouts = by_name.get(FANOUT, ())
    workers = max((len({s.thread for s in runs if s.parent == f.sid}) for f in fanouts),
                  default=0)
    put("harness.workers", workers, "count")
    put("harness.run_seeds.s", sum(dur(FANOUT)), "s")
    put("harness.wait_s", sum((s.t1 - s.t0) - s.cpu for s in runs), "s")
    put("harness.aggregate.s", sum(dur("harness.aggregate")), "s")
    put("harness.write.s", sum(dur("harness.write_table")) + sum(dur("metrics.to_csv")), "s")
    put("harness.bytes_written", bytes_written, "bytes")

    put("trace_overhead", overhead, "ratio")
    accounted = sum(own.values()) - overlap
    put("trace.accounted_share", accounted / wall_s, "ratio")
    return out, tails

