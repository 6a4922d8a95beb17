import os

import numpy as np
import pytest

import visolve as vs
from visolve import cli, harness
from visolve.harness import ConfigError, RunConfig
from visolve.metrics import GapTrace


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


def test_end_to_end_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        harness.run_command(_pennies_config(out))
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
    path = harness.compare_command(cfg)
    with open(path) as f:
        header = f.readline().strip().split(",")
    assert header[0] == "evals"
    for algo in ("eg", "rm+"):
        for mode in ("last", "uniform", "linear", "quadratic"):
            assert f"{algo}_{mode}" in header


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


def test_build_instance_unknown_name():
    with pytest.raises(ConfigError, match="unknown"):
        harness.build_instance("no-such-generator")


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


def test_cli_numerical_abort_exit_code(tmp_path, capsys):
    with np.errstate(over="ignore"):
        code = cli.main(["run", "--gen", "uniform", "--n", "4", "--seed", "0",
                         "--algo", "eg", "--seeds", "0", "--budget", "80",
                         "--eval-every", "8", "--tau-scale", "1e300",
                         "--out", str(tmp_path)])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


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
