"""Self-tests of the benchmark: span arithmetic, the recorder, the output
check, and agreement of the metric names with BENCHMARK.json.

Run from the root of the checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import re
import threading
import time

import numpy as np
import pytest

import checks
import layers
import run
from recorder import Recorder, Span, self_times
from workloads import ALL_ALGORITHMS, Inputs, Workload, metric_tag

vs, mods = run.import_package()


def _span(sid, parent, name, thread, t0, t1):
    return Span(sid, parent, name, thread, float(t0), float(t1), None, None)


def test_self_times_of_nested_spans_across_two_threads():
    # main thread: cli.main [0, 10] > harness.run_seeds [1, 9] > harness.aggregate [8.5, 9]
    # pool threads 2 and 3 run the seed runs [2, 7] and [3, 8.5] under run_seeds;
    # seed run 2 has a step [2, 4] with a projection [2.5, 3].
    spans = [
        _span(1, None, "cli.main", 1, 0, 10),
        _span(2, 1, "harness.run_seeds", 1, 1, 9),
        _span(3, 2, "solvers.run", 2, 2, 7),
        _span(4, 2, "solvers.run", 3, 3, 8.5),
        _span(5, 3, "solvers.eg.step", 2, 2, 4),
        _span(6, 5, "sets.project", 2, 2.5, 3),
        _span(7, 2, "harness.aggregate", 1, 8.5, 9),
    ]
    own, overlap = self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 1.0, 3: 3.0, 4: 5.5, 5: 1.5, 6: 0.5, 7: 0.5})
    # seed runs overlap on [3, 7]: four seconds counted on both pool threads
    assert overlap == pytest.approx(4.0)
    assert sum(own.values()) - overlap == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [_span(1, None, "a.x", 1, 0, 4), _span(2, 1, "b.y", 2, 3, 6)]
    own, overlap = self_times(spans)
    assert own[1] == pytest.approx(3.0)
    assert overlap == pytest.approx(0.0)


class _Box:
    def inner(self, x):
        time.sleep(0.002)
        return x + 1

    def outer(self, x):
        return self.inner(self.inner(x))


def test_recorder_nests_per_thread_links_pool_runs_and_restores():
    originals = dict(vars(_Box))
    rec = Recorder(fanout=("pool.fan",), cpu_names=("pool.run",))
    box = _Box()

    def one(x):
        return box.outer(x)

    def fan():
        workers = [threading.Thread(target=traced_run, args=(k,)) for k in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    traced_run = rec.traced("pool.run", one)
    traced_fan = rec.traced("pool.fan", fan)
    assert rec.patch(_Box, "outer", "box.outer")
    assert rec.patch(_Box, "inner", "box.inner")
    assert not rec.patch(_Box, "absent", "box.absent")
    try:
        traced_root = rec.traced("cli.main", traced_fan)
        traced_root()
    finally:
        rec.restore()
    assert dict(vars(_Box)) == originals

    by_sid = {s.sid: s for s in rec.spans}
    names = [s.name for s in rec.spans]
    assert names.count("pool.run") == 2 and names.count("box.outer") == 2
    assert names.count("box.inner") == 4
    fan_span = next(s for s in rec.spans if s.name == "pool.fan")
    for s in rec.spans:
        if s.name == "pool.run":
            assert s.parent == fan_span.sid and s.thread != fan_span.thread
            assert s.cpu is not None and s.cpu <= s.t1 - s.t0
        if s.name == "box.inner":
            parent = by_sid[s.parent]
            assert parent.name == "box.outer" and parent.thread == s.thread
    root = next(s for s in rec.spans if s.name == "cli.main")
    own, overlap = self_times(rec.spans)
    assert sum(own.values()) - overlap == pytest.approx(root.t1 - root.t0, abs=1e-9)


def test_recorder_opens_no_second_span_for_a_nested_call_of_the_same_name():
    rec = Recorder()
    calls = []

    def leaf(x):
        calls.append(x)
        return x

    traced_leaf = rec.traced("sets.project", leaf)
    traced_outer = rec.traced("sets.project", lambda x: traced_leaf(x) * 2)
    assert traced_outer(3) == 6
    assert calls == [3] and [s.name for s in rec.spans] == ["sets.project"]


# --- output check -------------------------------------------------------------

SMALL = Workload(
    name="pb-small", why="self-test", command="run", algorithms=("svrg-eg", "eg"),
    run_seeds=(0, 1), budget=2000, eval_every=100, headline="eg", target=0.0,
    ttg_seeds=1, ttg_budget=2000, ttg_eval_every=100)


@pytest.fixture()
def small_sweep(tmp_path):
    path = str(tmp_path / "pb20.vif")
    vs.save_instance(path, vs.policeman_burglar(20, 3))
    inputs = Inputs(["--instance", path], "pb20", lambda: vs.load_instance(path))
    return run.sweep(mods, SMALL, inputs, str(tmp_path / "out"))


def _check(code, written, reference=None, seed=1):
    reference = reference or {"seed": 0, "rtol": 1e-6, "workloads": {}}
    return checks.check_sweep(vs.GapTrace, SMALL, "pb20", code, written, seed, reference)


def test_output_check_passes_an_untouched_sweep(small_sweep):
    check = _check(*small_sweep)
    assert check.failed == 0, check.reasons
    assert set(check.finals) == {"svrg-eg", "eg"}
    assert len(check.digests) == 6


def test_output_check_rejects_a_tampered_csv(small_sweep):
    code, written = small_sweep
    before = _check(code, written).digests
    path = next(p for p in written if p.endswith("_svrg-eg_seed1.csv"))
    with open(path) as f:
        lines = f.read().splitlines()
    cells = lines[-1].split(",")
    cells[1] = "-0.5"                                   # a negative gap_last
    lines[-1] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    check = _check(code, written)
    assert check.failures[("svrg-eg", 1)] is not None
    assert check.failures[("svrg-eg", 0)] is None and check.failures[("eg", 0)] is None
    assert check.digests[os.path.basename(path)] != before[os.path.basename(path)]


def test_output_check_rejects_a_truncated_trace(small_sweep):
    code, written = small_sweep
    path = next(p for p in written if p.endswith("_eg_seed0.csv"))
    with open(path) as f:
        lines = f.read().splitlines()
    with open(path, "w") as f:
        f.write("\n".join(lines[:-2]) + "\n")
    check = _check(code, written)
    assert check.failures[("eg", 0)] is not None


def test_output_check_rejects_a_wrong_final_gap(small_sweep):
    code, written = small_sweep
    finals = _check(code, written).finals
    reference = {"seed": 1, "rtol": 1e-6, "workloads": {"pb-small": {"final_gap_linear": {
        "svrg-eg": finals["svrg-eg"], "eg": finals["eg"] * (1 + 1e-4)}}}}
    check = _check(code, written, reference, seed=1)
    assert check.failures[("eg", 0)] is not None and check.failures[("eg", 1)] is not None
    assert check.failures[("svrg-eg", 0)] is None
    # on another seed the random algorithm is not held to the reference
    reference["workloads"]["pb-small"]["final_gap_linear"]["svrg-eg"] *= 2
    reference["seed"] = 0
    check = _check(code, written, reference, seed=1)
    assert check.failures[("svrg-eg", 0)] is None


def test_output_check_fails_every_run_on_a_nonzero_exit(small_sweep):
    check = _check(2, small_sweep[1])
    assert check.failed == len(check.failures) == 4


# --- benchmark definition -----------------------------------------------------

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def test_per_layer_metrics_match_the_benchmark_definition():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    found, _ = layers.layer_metrics([], algorithms=ALL_ALGORITHMS, wall_s=1.0,
                                    overhead=0.0, op_bytes=0, evals_to_gap=0,
                                    bytes_written=0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, m["unit"]) for name, m in found.items()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for metric in bench["per_layer"] + bench["end_to_end"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])


def test_algorithm_tags_map_to_metric_names():
    assert metric_tag("rm+") == "rm-plus"
    assert [metric_tag(a) for a in ALL_ALGORITHMS if a != "rm+"] == \
        [a for a in ALL_ALGORITHMS if a != "rm+"]


def test_relabeled_pursuit_games_differ_by_seed_but_keep_their_gaps():
    from workloads import house_permutations
    rows0, cols0 = house_permutations(0)
    rows1, _ = house_permutations(1)
    assert not np.array_equal(rows0, rows1)
    assert np.array_equal(np.sort(rows0), np.arange(rows0.size))
    assert np.array_equal(house_permutations(0)[1], cols0)
