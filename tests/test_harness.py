import os
import pickle

import numpy as np
import pytest

import visolve as vs
from visolve import cli, harness, solvers
from visolve.harness import ConfigError, RunConfig
from visolve.metrics import GapTrace
from visolve.rng import StableRng


def _pennies_config(tmp_path, **overrides):
    kw = dict(instance="matching-pennies", algorithms=["svrg-eg"], seeds=[0, 1, 2],
              budget=400, eval_every=40, out=str(tmp_path))
    kw.update(overrides)
    return RunConfig(**kw)


def test_run_command_writes_schema(tmp_path):
    cfg = _pennies_config(tmp_path)
    written = harness.run_command(cfg)
    per_seed = [p for p in written if "seed" in os.path.basename(p)]
    assert len(per_seed) == 3
    header = open(per_seed[0]).readline().strip()
    assert header == "evals,gap_last,gap_uniform,gap_linear,gap_quadratic,dist_theta"
    agg = [p for p in written if p.endswith("aggregate.csv")][0]
    agg_header = open(agg).readline().strip().split(",")
    assert "gap_last_mean" in agg_header and "gap_last_std" in agg_header


def test_aggregate_recomputable_from_per_seed_files(tmp_path):
    cfg = _pennies_config(tmp_path)
    written = harness.run_command(cfg)
    per_seed = sorted(p for p in written if "seed" in os.path.basename(p))
    traces = [GapTrace.from_csv(p) for p in per_seed]
    agg_path = [p for p in written if p.endswith("aggregate.csv")][0]
    with open(agg_path) as f:
        names = f.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in f])
    table = dict(zip(names, rows.T))
    stack = np.stack([t.gap_last for t in traces])
    assert np.allclose(table["gap_last_mean"], stack.mean(axis=0), atol=1e-12)
    assert np.allclose(table["gap_last_std"], stack.std(axis=0, ddof=1), atol=1e-12)
    assert np.allclose(table["evals_mean"], np.stack([t.evals for t in traces]).mean(axis=0))


def test_aggregate_of_equal_seeds_is_exact():
    """Where every seed holds the same value, the mean is that value and the
    std is 0, although numpy's mean of three equal floats is sometimes not
    that float; where the seeds differ, numpy's mean and std stand."""
    values = StableRng(3).uniform(200)
    equal = np.stack([values] * 3)
    assert np.any(equal.mean(axis=0) != values)  # the case the rule is for
    trace = lambda gaps: GapTrace(np.arange(1, 201), *[gaps] * 4)
    out = harness.aggregate([trace(values)] * 3)
    for name in ("evals", "gap_last", "gap_uniform", "gap_linear", "gap_quadratic"):
        assert out[f"{name}_mean"].tobytes() == trace(values).column(name).astype(float).tobytes()
        assert not out[f"{name}_std"].any()
    moved = values.copy()
    moved[::2] += 1.0
    stack = np.stack([values, values, moved])
    out = harness.aggregate([trace(row) for row in stack])
    assert np.array_equal(out["gap_last_mean"][::2], stack.mean(axis=0)[::2])
    assert np.array_equal(out["gap_last_std"][::2], stack.std(axis=0, ddof=1)[::2])
    assert np.array_equal(out["gap_last_mean"][1::2], values[1::2])
    assert not out["gap_last_std"][1::2].any()


def test_end_to_end_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        harness.run_command(_pennies_config(out))
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_deterministic_algorithm_runs_once_per_sweep(monkeypatch, pb8):
    """An algorithm that draws nothing runs for the first seed only; every
    seed gets the trace a run of its own would give, with its own seed."""
    calls = []
    real_run = solvers.run

    def counting_run(problem, algorithm, *args, **kwargs):
        calls.append(algorithm)
        return real_run(problem, algorithm, *args, **kwargs)

    monkeypatch.setattr(solvers, "run", counting_run)
    cfg = RunConfig(instance="pb", algorithms=list(vs.ALGORITHMS), seeds=[4, 0, 9],
                    budget=400, eval_every=40)
    for algo in vs.ALGORITHMS:
        traces = harness.run_seeds(pb8, algo, cfg)
        assert list(traces) == cfg.seeds
        for seed, trace in traces.items():
            alone = real_run(pb8, algo, cfg.budget, seed, cfg.eval_every)
            assert trace.meta == alone.meta and trace.meta["seed"] == seed
            for name in trace.columns:
                assert np.array_equal(trace.column(name), alone.column(name))
    assert calls == [algo for algo in vs.ALGORITHMS
                     for _ in range(1 if algo in solvers.DETERMINISTIC else 3)]
    assert set(solvers.DETERMINISTIC) == {"eg", "pda", "oomd-l2", "oomd-entropy", "rm+"}


def test_warm_projection_keeps_no_state_between_sweeps(tmp_path):
    """Projections guess only from the support records their solver holds:
    a pb30 sweep, a ws-example sweep and the pb30 sweep again, in one
    process, write the same pb30 bytes twice, and a sweep leaves its
    instance's set as it was."""
    pb30 = ["--gen", "pb", "--n", "30", "--algo", "svrg-eg,eg", "--seeds", "0,1",
            "--budget", "3000", "--eval-every", "300"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["run", *pb30, "--out", str(first)]) == 0
    assert cli.main(["run", "--gen", "ws-example", "--algo", "svrg-eg,eg", "--seeds", "0,1",
                     "--budget", "200", "--eval-every", "10", "--out", str(tmp_path / "ws")]) == 0
    assert cli.main(["run", *pb30, "--out", str(second)]) == 0
    names = sorted(os.listdir(first))
    assert len(names) == 6 and names == sorted(os.listdir(second))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()

    problem, _, _ = harness.build_instance("pb", n=30)
    before = {key: pickle.dumps(value) for key, value in vars(problem.set).items()}
    cfg = RunConfig(instance="pb", algorithms=["svrg-eg", "eg"], seeds=[0, 1], budget=3000,
                    eval_every=300)
    for algo in cfg.algorithms:
        harness.run_seeds(problem, algo, cfg)
    assert {key: pickle.dumps(value) for key, value in vars(problem.set).items()} == before


def test_per_seed_row_counts_align(tmp_path):
    cfg = _pennies_config(tmp_path, seeds=list(range(6)))
    written = harness.run_command(cfg)
    per_seed = [p for p in written if "seed" in os.path.basename(p)]
    counts = {len(GapTrace.from_csv(p)) for p in per_seed}
    assert len(counts) == 1
    agg = [p for p in written if p.endswith("aggregate.csv")][0]
    assert len(open(agg).read().splitlines()) - 1 == counts.pop()


def test_compare_wide_csv(tmp_path):
    cfg = RunConfig(instance="pb", instance_params={"n": 8, "seed": 1},
                    algorithms=["eg", "rm+"], seeds=[0, 1], budget=480,
                    eval_every=48, out=str(tmp_path))
    path, = harness.compare_command(cfg)
    with open(path) as f:
        header = f.readline().strip().split(",")
    assert header[0] == "evals"
    for algo in ("eg", "rm+"):
        for mode in ("last", "uniform", "linear", "quadratic"):
            assert f"{algo}_{mode}" in header


def _read_table(path):
    """{column name: float array} of a CSV written by `write_table`."""
    with open(path) as f:
        names = f.readline().strip().split(",")
        return dict(zip(names, np.array([line.split(",") for line in f], dtype=float).T))


def test_compare_of_a_deterministic_algorithm_is_its_trace(tmp_path):
    """Every seed of a deterministic algorithm holds the same trace, so each
    compare column is that trace at the nearest checkpoint, bit for bit, as
    its aggregate is; numpy's mean of the three equal seeds is not."""
    cfg = RunConfig(instance="pb", instance_params={"n": 30, "seed": 1}, algorithms=["eg", "pda"],
                    seeds=[0, 1, 2], budget=3000, eval_every=60, out=str(tmp_path / "c.csv"))
    path, = harness.compare_command(cfg)
    table = _read_table(path)
    problem = vs.policeman_burglar(30, 1)
    moved = 0
    for algo in cfg.algorithms:
        trace = solvers.run(problem, algo, cfg.budget, 0, cfg.eval_every)
        nearest = np.abs(trace.evals[None, :] - table["evals"][:, None]).argmin(axis=1)
        for mode in ("last", "uniform", "linear", "quadratic"):
            column = trace.column(f"gap_{mode}")[nearest]
            assert table[f"{algo}_{mode}"].tobytes() == column.tobytes(), (algo, mode)
            moved += np.count_nonzero(np.stack([column] * 3).mean(axis=0) != column)
    assert moved  # the case the rule is for


def test_compare_grid_ends_at_the_budget(tmp_path):
    """A budget that is not a multiple of the cadence ends the compare grid,
    as it ends a run: the last row is at the budget, and a deterministic
    algorithm's columns there are its run's final row, bit for bit."""
    cfg = RunConfig(instance="pb", instance_params={"n": 8, "seed": 1}, algorithms=["oomd-l2"],
                    seeds=[0, 1, 2], budget=320, eval_every=24, out=str(tmp_path / "c.csv"))
    table = _read_table(harness.compare_command(cfg)[0])
    assert list(table["evals"]) == [*range(24, 320, 24), 320]
    trace = solvers.run(vs.policeman_burglar(8, 1), "oomd-l2", 320, 0, 24)
    assert trace.evals[-1] == 320
    for mode in ("last", "uniform", "linear", "quadratic"):
        assert table[f"oomd-l2_{mode}"][-1] == trace.column(f"gap_{mode}")[-1], mode


def test_a_budget_of_one_evaluation_writes_a_row(tmp_path):
    """svrg-eg pays the budget of one full evaluation (N = 8) when it is
    built; `run` and `compare` still write the row of its first step."""
    flags = ["--gen", "pb", "--n", "8", "--seed", "1", "--algo", "svrg-eg", "--seeds", "0",
             "--budget", "8", "--eval-every", "8"]
    assert cli.main(["run", *flags, "--out", str(tmp_path / "run")]) == 0
    trace = GapTrace.from_csv(tmp_path / "run" / "pb8-s1_svrg-eg_seed0.csv")
    assert len(trace) == 1 and trace.evals[0] > 8
    assert cli.main(["compare", *flags, "--out", str(tmp_path / "c.csv")]) == 0
    assert list(_read_table(tmp_path / "c.csv")["evals"]) == [8]


def test_compare_rejects_inapplicable_algorithm(tmp_path):
    cfg = RunConfig(instance="segmentation", instance_params={"grid": 2, "regions": 2, "seed": 0},
                    algorithms=["rm+"], seeds=[0], budget=2000, eval_every=500,
                    out=str(tmp_path))
    with pytest.raises(ConfigError, match="simplex"):
        harness.compare_command(cfg)


def test_validation_collects_all_errors():
    cfg = RunConfig(instance="matching-pennies", algorithms=["sgd"], seeds=[],
                    budget=1, eval_every=0, tau_scale=-1.0)
    problem, _, _ = harness.build_instance("matching-pennies")
    with pytest.raises(ConfigError) as err:
        cfg.validate(problem)
    assert len(err.value.errors) >= 4


def test_run_command_rejects_averaging_exponents(tmp_path):
    """q_exponents picks compare's columns; run writes every average, so a
    library caller's run is refused as the CLI's --q on run is."""
    cfg = RunConfig(instance="pb", instance_params={"n": 6}, algorithms=["eg"], seeds=[0],
                    budget=60, q_exponents=(1,), out=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="--q applies to compare only"):
        harness.run_command(cfg)
    assert not (tmp_path / "out").exists()
    assert harness.compare_command(cfg) == [str(tmp_path / "out" / "pb6-s0_compare.csv")]


def test_build_instance_unknown_name():
    with pytest.raises(ConfigError, match="unknown"):
        harness.build_instance("no-such-generator")


def test_build_instance_rejects_a_parameter_it_does_not_take():
    with pytest.raises(ConfigError, match="ws-example takes no parameters, not seed"):
        harness.build_instance("ws-example", seed=0)


@pytest.mark.parametrize("name, params, label", [
    ("pb", {"n": 5}, "pb5-s0"),
    ("nemirovski", {"n": 4}, "nem1-4"),
    ("uniform", {"n": 3}, "uni3x3-s0"),
    ("uniform", {"n": 3, "m": 2, "seed": 4}, "uni3x2-s4"),
    ("segmentation", {"grid": 3}, "seg3x3h2-s0"),
    ("ws-example", {}, "ws-example"),
    ("matching-pennies", {}, "pennies"),
])
def test_build_instance_labels(name, params, label):
    assert harness.build_instance(name, **params)[2] == label


def test_cli_gen_run_compare_cycle(tmp_path, capsys):
    inst = tmp_path / "game.vif"
    assert cli.main(["gen", "pb", "--n", "6", "--seed", "1", "--out", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "frobenius" in out and "spectral" in out
    loaded = vs.load_instance(inst)
    assert loaded.structure.A.shape == (6, 6)

    run_dir = tmp_path / "runs"
    code = cli.main(["run", "--instance", str(inst), "--algo", "svrg-eg,eg",
                     "--seeds", "0-2", "--budget", "360", "--eval-every", "36",
                     "--out", str(run_dir)])
    assert code == 0
    files = os.listdir(run_dir)
    assert sum(f.endswith("aggregate.csv") for f in files) == 2
    assert sum("seed" in f for f in files) == 6

    cmp_path = tmp_path / "cmp.csv"
    code = cli.main(["compare", "--gen", "pb", "--n", "6", "--seed", "1",
                     "--algo", "eg", "--seeds", "0", "--budget", "360",
                     "--eval-every", "36", "--q", "1", "--out", str(cmp_path)])
    assert code == 0
    header = open(cmp_path).readline().strip().split(",")
    assert header == ["evals", "eg_last", "eg_linear"]


def test_cli_gen_ws_example_affine_layout(tmp_path):
    inst = tmp_path / "ws.vif"
    assert cli.main(["gen", "ws-example", "--out", str(inst)]) == 0
    loaded = vs.load_instance(inst)
    assert loaded.structure is None
    assert np.allclose(loaded.operator(np.zeros(2)), [-2.0, -2.0])


def test_cli_config_error_exit_code(capsys):
    assert cli.main(["run", "--instance", "matching-pennies", "--algo", "svrg-eg"]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seeds", "abc"], ["--seeds", "1-x"], ["--seeds", "0,5-3"],
                                   ["--q", "x"]], ids=" ".join)
def test_cli_bad_seeds_or_q(tmp_path, capsys, flags):
    out = tmp_path / "out"
    code = cli.main(["run", "--instance", "matching-pennies", "--algo", "eg",
                     "--budget", "40", *flags, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad value {flags[1]!r} for {flags[0]}" in err
    assert "compare only" not in err
    assert not out.exists()


def test_cli_compare_repeated_q_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["compare", "--gen", "pb", "--n", "6", "--algo", "eg", "--budget", "60",
                     "--q", "1,1,0", "--out", str(out)])
    assert code == 2
    assert "averaging exponent list repeats 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_numerical_abort_exit_code(tmp_path, capsys):
    """A divergence exits 3: pda's extrapolated step and svrg-eg's sampled
    step overflow at step scales near the top of the float range."""
    for algo, budget, cadence, tau_scale in (("pda", "80", "8", "8e307"),
                                             ("svrg-eg", "160", "4", "1.7e308")):
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["run", "--gen", "uniform", "--n", "4", "--seed", "0",
                             "--algo", algo, "--seeds", "0", "--budget", budget,
                             "--eval-every", cadence, "--tau-scale", tau_scale,
                             "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"non-finite value in {algo}" in err and "of seed 0" in err


def test_cli_divergence_keeps_the_runs_that_completed(tmp_path, capsys):
    """dl-svrg-eg on the 4 x 4 uniform game at tau_scale 5e307: seed 0
    diverges at iteration 2, when its sampled step overflows, and leaves its
    one row in a partial file; seeds 1 and 2 run to the budget. The run
    writes those files, each the bytes of a direct run, and no aggregate,
    names the diverged seed and exits 3. pda at 8e307 diverges at iteration
    3 of every seed and leaves its rows in a partial file per seed; rm+
    beside it, which takes no step scale, writes all its files. A compare
    writes the columns of the algorithms whose seeds all completed."""
    problem = vs.uniform_random(4, 4, 0)
    flags = ["--gen", "uniform", "--n", "4", "--seed", "0", "--seeds", "0-2",
             "--budget", "160", "--eval-every", "4"]

    def cli_run(command, algos, tau_scale, out):
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main([command, *flags, "--algo", algos, "--tau-scale", tau_scale,
                             "--out", str(out)])
        assert code == 3
        return capsys.readouterr()

    def direct(algo, budget, seed, tau_scale, path):
        with np.errstate(over="ignore", invalid="ignore"):
            vs.run(problem, algo, budget, seed, 4, tau_scale=tau_scale).to_csv(path)
        return path.read_bytes()

    printed, err = cli_run("run", "dl-svrg-eg", "5e307", tmp_path / "vr")
    names = ["uni4x4-s0_dl-svrg-eg_seed0_partial.csv",
             *(f"uni4x4-s0_dl-svrg-eg_seed{seed}.csv" for seed in (1, 2))]
    assert sorted(os.listdir(tmp_path / "vr")) == sorted(names)
    assert sorted(printed.split()) == sorted(str(tmp_path / "vr" / name) for name in names)
    assert "non-finite value in dl-svrg-eg at iteration 2 of seed 0" in err
    assert "no aggregate for dl-svrg-eg: seed 0 diverged" in err
    partial = (tmp_path / "vr" / names[0]).read_text().splitlines()
    assert len(partial) == 2                                    # the header and one row
    row_evals = int(partial[1].split(",")[0])
    assert (tmp_path / "vr" / names[0]).read_bytes() == direct(
        "dl-svrg-eg", row_evals, 0, 5e307, tmp_path / "seed0.csv")
    for seed in (1, 2):
        assert (tmp_path / "vr" / names[seed]).read_bytes() == direct(
            "dl-svrg-eg", 160, seed, 5e307, tmp_path / f"seed{seed}.csv")

    printed, err = cli_run("run", "pda,rm+", "8e307", tmp_path / "pda")
    names = [*(f"uni4x4-s0_pda_seed{seed}_partial.csv" for seed in range(3)),
             *(f"uni4x4-s0_rm+_seed{seed}.csv" for seed in range(3)), "uni4x4-s0_rm+_aggregate.csv"]
    assert printed.split() == [str(tmp_path / "pda" / name) for name in names]
    assert sorted(os.listdir(tmp_path / "pda")) == sorted(names)
    assert all(f"non-finite value in pda at iteration 3 of seed {seed}" in err for seed in range(3))
    assert "no aggregate for pda: seeds 0, 1, 2 diverged" in err and "rm+" not in err
    pda12 = direct("pda", 12, 0, 8e307, tmp_path / "pda12.csv")
    for seed in range(3):
        assert (tmp_path / "pda" / names[seed]).read_bytes() == pda12

    printed, err = cli_run("compare", "dl-svrg-eg,rm+", "5e307", tmp_path / "cmp")
    assert printed.split() == [str(tmp_path / "cmp" / "uni4x4-s0_compare.csv")]
    assert "no columns for dl-svrg-eg: seed 0 diverged" in err
    header = (tmp_path / "cmp" / "uni4x4-s0_compare.csv").read_text().splitlines()[0]
    assert header == "evals,rm+_last,rm+_uniform,rm+_linear,rm+_quadratic"


def test_cli_divergence_after_rows_that_fail_the_trace_checks(tmp_path, capsys, monkeypatch):
    """eg on the 4 x 4 uniform game with the linear term bx = 1e15 (1, 1.5,
    2, 1.25), whose operator overflows at its 40th call: the run diverges at
    iteration 19, after a row whose gap GapTrace rejects, so no seed of eg
    leaves a file, not even a partial one. rm+ beside it, which calls the
    operator only after that, writes all its files, each the bytes of a
    direct run. The run names every seed of eg and exits 3."""
    A = vs.uniform_random(4, 4, 0).structure.A
    problem = vs.AffineVI.bilinear(A, 1e15 * np.array([1.0, 1.5, 2.0, 1.25]), np.zeros(4))
    operator, calls = problem.operator, []

    def overflowing(z):
        calls.append(z)
        scale = 1e300 if len(calls) == 40 else 1.0
        return operator(z) * scale * scale

    problem.operator = overflowing
    monkeypatch.setattr(harness, "build_instance", lambda name, **params: (problem, None, "bx"))
    with np.errstate(over="ignore"):
        code = cli.main(["run", "--gen", "uniform", "--algo", "eg,rm+", "--seeds", "0-2",
                         "--budget", "160", "--eval-every", "4", "--out", str(tmp_path / "out")])
    assert code == 3
    printed, err = capsys.readouterr()
    names = [*(f"bx_rm+_seed{seed}.csv" for seed in range(3)), "bx_rm+_aggregate.csv"]
    assert printed.split() == [str(tmp_path / "out" / name) for name in names]
    assert sorted(os.listdir(tmp_path / "out")) == sorted(names)
    assert all(f"non-finite value in eg at iteration 19 of seed {seed}" in err for seed in range(3))
    assert "no aggregate for eg: seeds 0, 1, 2 diverged" in err and "rm+" not in err
    for seed in range(3):
        vs.run(problem, "rm+", 160, seed, 4).to_csv(tmp_path / "direct.csv")
        assert ((tmp_path / "out" / names[seed]).read_bytes()
                == (tmp_path / "direct.csv").read_bytes())


def test_cli_solver_parameter_overrides(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", "--instance", "ws-example", "--algo", "svrg-eg",
                     "--seeds", "0", "--budget", "200", "--eval-every", "20",
                     "--p", "0.5", "--alpha", "0.5", "--gamma", "0.9",
                     "--out", str(out)])
    assert code == 0
    trace = GapTrace.from_csv(next(out / f for f in os.listdir(out) if "seed" in f))
    assert trace.dist_theta is not None
    assert trace.dist_theta[-1] <= 1e-10  # the sharp 2-D instance is solved exactly


def test_cli_gen_nemirovski_alpha_alias(tmp_path, capsys):
    inst = tmp_path / "nem.vif"
    code = cli.main(["gen", "nemirovski", "--family", "2", "--n", "2",
                     "--alpha", "1", "--out", str(inst)])
    assert code == 0
    loaded = vs.load_instance(inst)
    assert np.allclose(loaded.structure.A, np.array([[1.0, 2.0], [2.0, 1.0]]) / 3.0)


@pytest.mark.parametrize("argv, message", [
    (["run", "--instance", "p4.vif", "--gen", "segmentation", "--grid", "3"],
     "name exactly one instance, with --instance FILE or --gen NAME; got p4.vif, segmentation"),
    (["gen", "pb", "--gen", "uniform", "--n", "3"], "got uniform, pb"),
    (["run", "--gen", "pb", "--n", "6", "--grid", "9", "--regions", "5", "--family", "2"],
     "pb takes n, seed, not family, grid, regions"),
    (["run", "--gen", "matching-pennies", "--n", "50", "--m", "3"],
     "matching-pennies takes no parameters, not n, m"),
    (["run", "--instance", "p4.vif", "--n", "100", "--seed", "7"],
     "p4.vif takes no parameters, not n, seed"),
    (["gen", "nemirovski", "--n", "3", "--alpha-exp", "2", "--alpha", "1"], None),
], ids=["instance-and-gen", "gen-positional-and-flag", "pb-segmentation-flags",
        "pennies-size-flags", "file-generator-flags", "alpha-exp-then-alpha"])
def test_cli_instance_inputs_used_or_rejected(tmp_path, monkeypatch, capsys, argv, message):
    """A second instance or a flag the instance does not take exits 2 and
    writes nothing; of the two spellings of gen's exponent the last wins."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "pb", "--n", "4", "--out", "p4.vif"]) == 0
    capsys.readouterr()
    extra = ["--out", "x.vif"] if argv[0] == "gen" else ["--algo", "eg", "--budget", "60",
                                                         "--out", "x"]
    code = cli.main([*argv, *extra])
    if message is None:
        assert code == 0
        A = vs.load_instance("x.vif").structure.A
        assert np.array_equal(A, vs.nemirovski(3, 1, 1.0).structure.A)
        return
    assert code == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists("x.vif") and not os.path.exists("x")


def test_cli_gen_alpha_alias_reads_its_value(tmp_path):
    inst = tmp_path / "nem.vif"  # 2 is not the default exponent, so the alias is read
    assert cli.main(["gen", "nemirovski", "--n", "3", "--alpha", "2", "--out", str(inst)]) == 0
    assert np.array_equal(vs.load_instance(inst).structure.A, vs.nemirovski(3, 1, 2.0).structure.A)


def test_cli_config_file_with_overrides(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("algo=eg\nbudget=160\neval-every=16\nseeds=0\n")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_file), "--instance", "matching-pennies",
                     "--budget", "320", "--out", str(out)])
    assert code == 0
    trace = GapTrace.from_csv(next(out / f for f in os.listdir(out) if "seed" in f))
    assert trace.evals[-1] == 320  # the flag overrode the file's budget


def test_cli_rejects_averaging_exponent_outside_0_1_2(tmp_path, capsys):
    code = cli.main(["compare", "--gen", "pb", "--n", "6", "--algo", "eg", "--budget", "60",
                     "--q", "0,3", "--out", str(tmp_path / "cmp.csv")])
    assert code == 2
    assert "0, 1 or 2" in capsys.readouterr().err
    assert not (tmp_path / "cmp.csv").exists()


def test_cli_config_file_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("algo=eg\nbudgett=999\n")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_file), "--instance", "matching-pennies",
                     "--budget", "40", "--out", str(out)])
    assert code == 2
    assert "budgett" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_bad_values(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("algo=eg\nbudget=abc\neval-every=1.5\n")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_file), "--instance", "matching-pennies",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'abc' for key 'budget'" in err
    assert "'1.5' for key 'eval-every'" in err  # every bad key in one message
    assert not out.exists()


def test_cli_config_file_missing(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code = cli.main(["run", "--config", str(missing), "--instance", "matching-pennies",
                     "--algo", "eg", "--budget", "40", "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"cannot read config file {missing}" in capsys.readouterr().err


def _csv_without_dist_theta(path):
    """The rows of a CSV with its dist_theta columns dropped."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [k for k, name in enumerate(rows[0]) if not name.startswith("dist_theta")]
    return [[row[k] for k in keep] for row in rows]


# small parameters for each generator; a generator left out runs with its defaults
_SMALL = {"pb": {"n": 6, "seed": 1}, "nemirovski": {"n": 5, "family": 2},
          "uniform": {"n": 4, "m": 5, "seed": 2}, "segmentation": {"grid": 3}}


def test_cli_run_from_gen_file_matches_gen(tmp_path):
    """Every generator's instance, saved and run from the file, writes the
    CSVs of the same run from the generator. A file carries no known
    solution set, so for ws-example and matching-pennies the generator's
    runs add a dist_theta column that the file's lack; every other column
    matches byte for byte."""
    for name in harness.GENERATORS:
        params = _SMALL.get(name, {})
        problem, known, label = harness.build_instance(name, **params)
        flags = [f for k, v in params.items() for f in (f"--{k.replace('_', '-')}", str(v))]
        inst = tmp_path / f"{label}.vif"  # the label --gen gives, so file names match too
        assert cli.main(["gen", name, *flags, "--out", str(inst)]) == 0
        algos = [a for a in vs.ALGORITHMS if vs.applicable(problem, a)]
        sweep = ["--algo", ",".join(algos), "--seeds", "0-1", "--budget", "360",
                 "--eval-every", "36"]
        from_file, from_gen = tmp_path / name / "file", tmp_path / name / "gen"
        assert cli.main(["run", "--instance", str(inst), *sweep, "--out", str(from_file)]) == 0
        assert cli.main(["run", "--gen", name, *flags, *sweep, "--out", str(from_gen)]) == 0
        names = sorted(os.listdir(from_gen))
        assert sorted(os.listdir(from_file)) == names and len(names) == 3 * len(algos)
        for csv in names:
            if known is None:
                assert (from_file / csv).read_bytes() == (from_gen / csv).read_bytes(), csv
            else:
                assert (_csv_without_dist_theta(from_file / csv)
                        == _csv_without_dist_theta(from_gen / csv)), csv


def test_cli_malformed_instance_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.vif"
    nan_in_A = np.array([np.nan] + [0.0] * 7, dtype="<f8").tobytes()
    for payload in (b"abc", nan_in_A):
        bad.write_bytes(b"vif2 2 2 simplex:2*simplex:2\n" + payload)
        code = cli.main(["run", "--instance", str(bad), "--algo", "eg", "--budget", "40",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"instance file {bad}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_gen_out_of_range_parameter_exit_code(tmp_path, capsys):
    assert cli.main(["gen", "pb", "--n", "0", "--out", str(tmp_path / "x.vif")]) == 2
    assert "need at least one house" in capsys.readouterr().err
    assert not (tmp_path / "x.vif").exists()


def test_cli_gen_negative_seed_exit_code(tmp_path, capsys):
    assert cli.main(["gen", "pb", "--n", "6", "--seed", "-1",
                     "--out", str(tmp_path / "x.vif")]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x.vif").exists()


def test_cli_gen_unwritable_output_exit_code(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.vif"
    assert cli.main(["gen", "pb", "--n", "4", "--out", str(out)]) == 2
    assert f"cannot write instance file {out}" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["cmp.csv", "cmp"], ids=["file", "directory"])
def test_cli_compare_out_file_or_directory(tmp_path, capsys, out):
    code = cli.main(["compare", "--gen", "pb", "--n", "6", "--seed", "1", "--algo", "eg",
                     "--budget", "360", "--eval-every", "36", "--out", str(tmp_path / out)])
    assert code == 0
    expect = tmp_path / out if out.endswith(".csv") else tmp_path / out / "pb6-s1_compare.csv"
    assert capsys.readouterr().out.splitlines() == [str(expect)]
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [expect]


@pytest.mark.parametrize("flags, message", [
    (["--algo", "eg", "--eval-every", "100"], "cadence 100 must lie between 1 and the budget 60"),
    (["--algo", "svrg-eg", "--p", "2"], "p must lie in (0, 1]"),
    (["--algo", "dl-svrg-eg,eg", "--alpha", "1"], "alpha must lie in [0, 1)"),
    (["--algo", "svrg-eg", "--gamma", "0"], "gamma must lie in (0, 1)"),
    (["--algo", "eg,pda", "--p", "0.5", "--gamma", "0.9"], "p, gamma given without svrg-eg"),
    (["--algo", "dl-svrg-eg", "--p", "0.001"], "p given without svrg-eg, the only algorithm"),
    (["--algo", "svrg-eg", "--seeds", "0,0,1"], "seed list repeats 0"),
    (["--algo", "eg", "--seeds=-1"], "--seeds must be non-negative, got -1"),
    (["--algo", "rm+", "--tau-scale", "5"], "tau-scale given without svrg-eg"),
    (["--algo", "eg", "--tau-scale", "inf"], "tau_scale must be positive and finite, got inf"),
    (["--algo", "eg,pda,eg"], "algorithm list repeats eg"),
    (["--algo", "eg", "--q", "1"], "--q applies to compare only"),
], ids=["eval-every", "p", "alpha", "gamma", "p-without-svrg-eg", "p-with-only-dl-svrg-eg",
        "repeated-seed", "negative-seed", "tau-scale-with-only-rm+", "tau-scale-inf",
        "algo-repeated", "q-on-run"])
def test_cli_out_of_range_settings_exit_code(tmp_path, capsys, flags, message):
    for command in ("run",) if "--q" in flags else ("run", "compare"):  # --q is a compare flag
        code = cli.main([command, "--gen", "pb", "--n", "6", "--budget", "60", *flags,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_zero_operator_exit_code(tmp_path, capsys):
    path = str(tmp_path / "zero.vif")
    vs.save_instance(path, vs.AffineVI.bilinear(np.zeros((3, 3))))
    for algo in ("eg", "oomd-l2", "pda", "svrg-eg", "dl-svrg-eg"):
        # the one-house pursuit game is a 1 x 1 zero game
        for instance in (["--instance", path], ["--gen", "pb", "--n", "1"]):
            code = cli.main(["run", *instance, "--algo", algo, "--budget", "60",
                             "--out", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert f"{algo} cannot run on a zero operator" in err
            assert "Traceback" not in err and "L must be positive" not in err
    assert not (tmp_path / "out").exists()


def test_cli_step_scale_leaves_rm_plus_alone(tmp_path):
    """rm+ takes no step, so a sweep's --tau-scale scales only the others."""
    for scale in ("1", "2"):
        assert cli.main(["run", "--gen", "pb", "--n", "6", "--algo", "rm+,eg", "--budget", "60",
                         "--tau-scale", scale, "--out", str(tmp_path / scale)]) == 0
    read = lambda scale, algo: (tmp_path / scale / f"pb6-s0_{algo}_seed0.csv").read_bytes()
    assert read("1", "rm+") == read("2", "rm+")
    assert read("1", "eg") != read("2", "eg")


def test_cli_unknown_algorithm_named_once(tmp_path, capsys):
    code = cli.main(["run", "--gen", "pb", "--n", "6", "--algo", "sgd,sgd", "--budget", "60",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("unknown algorithm 'sgd'") == 1
    assert "algorithm list repeats sgd" in err


def test_build_instance_of_a_directory_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.vif").mkdir()
    with pytest.raises(ConfigError, match="cannot read instance file d.vif: Is a directory"):
        harness.build_instance("d.vif")


def test_validation_rejects_an_empty_algorithm_list(pb8):
    with pytest.raises(ConfigError, match="no algorithms selected"):
        RunConfig(instance="pb", algorithms=[], seeds=[0], budget=100).validate(pb8)


def test_cli_run_without_algorithms_exit_code(tmp_path, capsys):
    assert cli.main(["run", "--gen", "pb", "--budget", "10", "--out", str(tmp_path)]) == 2
    assert "no algorithms: pass --algo tag[,tag...]" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_cli_overflowing_average_keeps_partial_files(tmp_path, capsys):
    """The game [[1, -1], [-1, 1]] with bx = (1.7e308, 1.7e308): every F is
    finite, but the running sum of F in the uniform average overflows at
    iteration 2 of rm+ and of eg, where the measure of that average is
    -inf. That row is a divergence: each seed keeps the rows before it in a
    partial file (eg one, rm+ none), and the run names every diverged seed
    and exits 3."""
    path = tmp_path / "big.vif"
    vs.save_instance(path, vs.AffineVI.bilinear([[1, -1], [-1, 1]], bx=[1.7e308, 1.7e308]))
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        code = cli.main(["run", "--instance", str(path), "--algo", "rm+,eg", "--seeds", "0-1",
                         "--budget", "40", "--eval-every", "4", "--out", str(out)])
    assert code == 3
    printed, err = capsys.readouterr()
    names = [f"big_{algo}_seed{seed}_partial.csv" for algo in ("rm+", "eg") for seed in (0, 1)]
    assert printed.split() == [str(out / name) for name in names]
    assert sorted(os.listdir(out)) == sorted(names)
    header = "evals,gap_last,gap_uniform,gap_linear,gap_quadratic\n"
    for algo, rows in (("rm+", ""), ("eg", "4,0,0,0,0\n")):
        for seed in (0, 1):
            assert f"non-finite value in {algo} at iteration 2 of seed {seed}" in err
            assert (out / f"big_{algo}_seed{seed}_partial.csv").read_text() == header + rows
        assert f"no aggregate for {algo}: seeds 0, 1 diverged" in err


def test_deterministic_divergence_gives_each_seed_its_own_record():
    """rm+ and eg on the overflowing game run once, for the first seed, and
    diverge at iteration 2; every seed gets its own NumericalDivergence and
    its own copy of the partial trace, with its seed in the ``meta``, the
    empty trace of rm+ included."""
    game = vs.AffineVI.bilinear([[1, -1], [-1, 1]], bx=[1.7e308, 1.7e308])
    cfg = RunConfig(instance="big", algorithms=["rm+", "eg"], seeds=[3, 0, 5], budget=40,
                    eval_every=4)
    for algo, rows in (("rm+", 0), ("eg", 1)):
        with np.errstate(over="ignore"):
            outcomes = harness.run_seeds(game, algo, cfg)
        assert list(outcomes) == cfg.seeds
        for seed, err in outcomes.items():
            assert isinstance(err, solvers.NumericalDivergence)
            assert str(err) == f"non-finite value in {algo} at iteration 2 of seed {seed}"
            assert len(err.trace) == rows and err.trace.meta["seed"] == seed
        assert len({id(err.trace) for err in outcomes.values()}) == 3


def test_cli_config_file_skips_comments_and_blank_lines(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("# a sweep of eg\n\nalgo=eg\n  # budget=1\nbudget=160\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_file), "--instance", "matching-pennies",
                     "--eval-every", "16", "--out", str(out)]) == 0
    trace = GapTrace.from_csv(next(out / f for f in os.listdir(out) if "seed" in f))
    assert trace.evals[-1] == 160
