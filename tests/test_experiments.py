"""Harness pipelines: CSV schemas, manifests, skip logic, determinism, CLI."""

import json

import numpy as np
import pytest

from vqls_precond import ZeroPivotError, lu_solve, poisson_1d
from vqls_precond.cli import main
from vqls_precond.experiments import (CI_SEEDS, DEFAULT_SEEDS, ExperimentConfig,
                                      NoFactorableInstanceError, SeedStatus, ci_profile,
                                      cmd_heat, cmd_solve, cmd_spectrum, cmd_sweep_depth,
                                      generate_instance, mean_sem, paper_profile)
from vqls_precond.vqls import DivergedError, VqlsConfig


def tiny_solve_config(out, **overrides):
    vqls_kwargs = {"depth": 1, "iterations": 200, "mode": "direct"}
    vqls_kwargs.update(overrides.pop("vqls", {}))
    return ExperimentConfig(kind="solve", n=4, instance="identity", seeds=[3],
                            vqls=VqlsConfig(**vqls_kwargs), output_dir=str(out),
                            **overrides)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_identity_smoke_solve(tmp_path):
    cfg = tiny_solve_config(tmp_path, vqls={"iterations": 2000})
    cmd_solve(cfg)
    for name in ("trace_plain.csv", "trace_precond.csv", "solution.csv",
                 "solution_best.csv", "residuals.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    for trace in ("trace_plain.csv", "trace_precond.csv"):
        header, rows = read_csv(tmp_path / trace)
        assert header == ["iteration", "cost", "grad_norm", "elapsed_s"]
        assert float(rows[-1][1]) < 1e-6
    header, rows = read_csv(tmp_path / "residuals.csv")
    assert header == ["index", "residual_plain", "residual_precond"]
    assert max(float(r[1]) for r in rows) < 1e-3
    assert max(float(r[2]) for r in rows) < 1e-3


def test_solution_csv_schema(tmp_path):
    cfg = tiny_solve_config(tmp_path)
    cmd_solve(cfg)
    header, rows = read_csv(tmp_path / "solution.csv")
    assert header == ["index", "x_exact", "x_vqls_plain", "x_vqls_precond"]
    assert len(rows) == 4


def test_solve_no_precond(tmp_path):
    cfg = tiny_solve_config(tmp_path, no_precond=True)
    cmd_solve(cfg)
    assert not (tmp_path / "trace_precond.csv").exists()
    header, _ = read_csv(tmp_path / "solution.csv")
    assert header == ["index", "x_exact", "x_vqls_plain"]


def _masked_outputs(out_dir):
    """All CSV/JSON bytes with the wall-clock trace column blanked."""
    data = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.name.startswith("trace_"):
            lines = text.strip().split("\n")
            text = "\n".join(",".join(line.split(",")[:3]) for line in lines)
        data[path.name] = text
    return data


def test_solve_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = ExperimentConfig(kind="solve", n=8, seeds=[2], output_dir=str(out1),
                            vqls=VqlsConfig(depth=1, iterations=30))
    cfg2 = ExperimentConfig(kind="solve", n=8, seeds=[2], output_dir=str(out2),
                            vqls=VqlsConfig(depth=1, iterations=30))
    cmd_solve(cfg1)
    cmd_solve(cfg2)
    a, b = _masked_outputs(out1), _masked_outputs(out2)
    a.pop("manifest.json")
    b.pop("manifest.json")  # holds output_dir, which differs by design here
    assert a == b


def test_solve_pads_non_power_of_two(tmp_path):
    cfg = ExperimentConfig(kind="solve", n=6, seeds=[1], output_dir=str(tmp_path),
                           vqls=VqlsConfig(depth=1, iterations=40))
    cmd_solve(cfg)
    header, rows = read_csv(tmp_path / "solution.csv")
    assert len(rows) == 6  # padded to 8 internally, truncated on extraction


def test_manifest_contents(tmp_path):
    cfg = tiny_solve_config(tmp_path, dump_matrix=True)
    cmd_solve(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["config"]["n"] == 4
    assert manifest["seeds"] == [{"requested": 3, "used": 3, "skipped_zero_pivot": []}]
    for name in manifest["artifacts"]:
        assert (tmp_path / name).exists()
    assert "instance.mtx" in manifest["artifacts"]


def test_zero_pivot_skip_lineage(tmp_path, monkeypatch):
    import vqls_precond.experiments as exp
    real_ilu0 = exp.ilu0
    calls = []

    def flaky_ilu0(A):
        calls.append(1)
        if len(calls) == 1:
            raise ZeroPivotError(0, 0.0)
        return real_ilu0(A)

    monkeypatch.setattr(exp, "ilu0", flaky_ilu0)
    cfg = ExperimentConfig(kind="solve", n=8, seeds=[5], output_dir=str(tmp_path),
                           vqls=VqlsConfig(depth=1, iterations=5))
    A, b, factors, status = generate_instance(cfg, 5)
    assert status == SeedStatus(requested=5, used=6, skipped_zero_pivot=[5])


def test_mean_sem_stub_and_brute_force():
    mean, sem = mean_sem([0.25, 0.25, 0.25])
    assert mean == 0.25 and sem == 0.0
    values = [0.1, 0.4, 0.3, 0.2]
    mean, sem = mean_sem(values)
    assert mean == pytest.approx(np.mean(values))
    assert sem == pytest.approx(np.std(values, ddof=1) / 2.0)


def test_sweep_depth_outputs_and_aggregates(tmp_path):
    cfg = ExperimentConfig(kind="sweep_depth", n=8, seeds=[1, 2], depths=[1, 2],
                           output_dir=str(tmp_path),
                           vqls=VqlsConfig(depth=1, iterations=25))
    cmd_sweep_depth(cfg)
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["depth", "mean_cost_plain", "sem_plain", "mean_cost_precond",
                      "sem_precond", "n_seeds", "median_cost_plain",
                      "median_cost_precond"]
    raw_header, raw_rows = read_csv(tmp_path / "sweep_raw.csv")
    assert raw_header == ["depth", "seed", "final_cost_plain", "final_cost_precond"]
    # aggregates must match a brute-force recomputation from the raw file
    for row in rows:
        depth = int(row[0])
        plain = [float(r[2]) for r in raw_rows if int(r[0]) == depth]
        mean, sem = mean_sem(plain)
        assert float(row[1]) == pytest.approx(mean, abs=1e-15)
        assert float(row[2]) == pytest.approx(sem, abs=1e-15)
        assert int(row[5]) == 2


def test_sweep_needs_two_seeds(tmp_path):
    with pytest.raises(ValueError):
        cfg = ExperimentConfig(kind="sweep_depth", n=8, seeds=[1], depths=[1],
                               output_dir=str(tmp_path))
        cmd_sweep_depth(cfg)


def test_spectrum_identity_instance(tmp_path):
    cfg = ExperimentConfig(kind="spectrum", n=8, instance="identity", seeds=[1, 2],
                           output_dir=str(tmp_path))
    cmd_spectrum(cfg)
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header[:5] == ["rank", "mean_sigma_plain", "sem_sigma_plain",
                          "mean_sigma_precond", "sem_sigma_precond"]
    for row in rows:
        assert float(row[1]) == 1.0 and float(row[3]) == 1.0
    _, cond_rows = read_csv(tmp_path / "condition.csv")
    for row in cond_rows:
        assert float(row[1]) == 1.0 and float(row[2]) == 1.0


def test_spectrum_full_density_preconditioned_flat(tmp_path):
    cfg = ExperimentConfig(kind="spectrum", n=8, density=1.0, seeds=[4],
                           output_dir=str(tmp_path))
    cmd_spectrum(cfg)
    _, rows = read_csv(tmp_path / "spectrum.csv")
    for row in rows:
        assert abs(float(row[3]) - 1.0) < 1e-6


def test_heat_pipeline(tmp_path):
    cfg = ExperimentConfig(kind="heat", n=16, seeds=[1], output_dir=str(tmp_path),
                           vqls=VqlsConfig(depth=0, iterations=300, mode="direct"))
    cmd_heat(cfg)
    header, rows = read_csv(tmp_path / "parabola.csv")
    assert header == ["index", "position", "u_exact"]
    A, b = poisson_1d(16)
    u = lu_solve(A.to_dense(), b)
    overlay = np.array([float(r[2]) for r in rows])
    assert np.abs(u - overlay).max() / np.abs(u).max() < 1e-10
    _, trace = read_csv(tmp_path / "trace_precond.csv")
    assert float(trace[-1][1]) < 1e-8


def test_heat_costs_stay_in_range(tmp_path):
    # The preconditioned arm starts at the exact solution, where 1 - g^2/h
    # rounds to either side of 0.
    cfg = ExperimentConfig(kind="heat", n=16, seeds=[1], output_dir=str(tmp_path),
                           vqls=VqlsConfig(depth=0, iterations=1500, mode="direct"))
    cmd_heat(cfg)
    _, trace = read_csv(tmp_path / "trace_precond.csv")
    assert all(0.0 <= float(row[1]) <= 1.0 for row in trace)


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(kind="sweep_depth", seeds=[4, 5], depths=[1, 3])
    data = cfg.to_dict()
    again = ExperimentConfig.from_dict(data)
    assert again == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert ExperimentConfig.from_json(path) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"kind": "solve", "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"kind": "solve", "vqls": {"bogus": 1}})


def test_empty_config_is_paper_protocol():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.n == 128 and cfg.density == 0.2
    assert cfg.seeds == DEFAULT_SEEDS and cfg.depths == list(range(1, 21))
    assert cfg.vqls.iterations == 10_000 and cfg.vqls.learning_rate == 1e-3
    assert cfg.vqls.depth == 20 and cfg.vqls.mode == "hermitized"


def test_profiles():
    ci = ci_profile("sweep_depth")
    assert ci.seeds == CI_SEEDS and ci.depths == [2, 6, 10]
    assert ci.vqls.iterations == 2000
    heat = ci_profile("heat")
    assert heat.vqls.mode == "direct" and heat.vqls.depth == 0
    paper = paper_profile("solve")
    assert paper.vqls.iterations == 10_000


def test_cli_solve_smoke(tmp_path, capsys):
    cfg = {"n": 4, "instance": "identity", "seeds": [3],
           "vqls": {"depth": 1, "iterations": 50, "mode": "direct"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "solution.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_flag_overrides(tmp_path):
    cfg = {"n": 4, "instance": "identity", "seeds": [3],
           "vqls": {"depth": 2, "iterations": 10, "mode": "direct"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code = main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "9", "--depth", "1", "--no-precond", "--dump-matrix"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == [9]
    assert manifest["config"]["vqls"]["depth"] == 1
    assert manifest["config"]["no_precond"] is True
    assert (out / "instance.mtx").exists()
    assert not (out / "trace_precond.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["solve", "--config", str(bad)]) == 2
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"bogus": 1}))
    assert main(["solve", "--config", str(worse)]) == 2


@pytest.mark.parametrize("command, config, flags", [
    ("solve", {"n": 4, "seeds": [1]}, []),                           # density too low for n
    ("sweep-depth", None, ["--profile", "ci", "--seed", "1"]),        # one seed
    ("sweep-depth", {"n": 8, "seeds": [1, 2], "depths": [1, -1]}, []),
    ("solve", {"n": "128", "seeds": [1]}, []),
    ("sweep-depth", {"n": 8, "seeds": [1, 1], "depths": [1]}, []),    # one instance twice
    ("heat", {"n": 0, "seeds": [1]}, []),
], ids=["density-too-low", "sweep-one-seed", "negative-depth", "n-not-int",
        "repeated-seed", "heat-no-nodes"])
def test_bad_config_exits_2_before_any_work(tmp_path, capsys, command, config, flags):
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        flags = flags + ["--config", str(cfg_path)]
    out = tmp_path / "run"
    assert main([command, "--out", str(out)] + flags) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


_TOY_CONFIGS = {
    "solve": {"n": 8, "seeds": [2], "vqls": {"depth": 1, "iterations": 20}},
    "sweep-depth": {"n": 8, "seeds": [1, 2], "depths": [1, 2], "vqls": {"iterations": 10}},
    "spectrum": {"n": 8, "seeds": [1, 2]},
    "heat": {"n": 8, "seeds": [1], "vqls": {"iterations": 50}},
}


def _columns(path):
    header, rows = read_csv(path)
    return {name: [row[j] for row in rows] for j, name in enumerate(header)
            if name != "elapsed_s"}


@pytest.mark.parametrize("command", sorted(_TOY_CONFIGS))
def test_no_precond_drops_exactly_the_precond_arm(tmp_path, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_TOY_CONFIGS[command]))
    both, plain = tmp_path / "both", tmp_path / "plain"
    assert main([command, "--config", str(cfg_path), "--out", str(both)]) == 0
    assert main([command, "--config", str(cfg_path), "--out", str(plain), "--no-precond"]) == 0
    csvs = sorted(path.name for path in plain.glob("*.csv"))
    assert csvs == sorted(path.name for path in both.glob("*.csv")
                          if "precond" not in path.name)
    for name in csvs:
        columns = _columns(plain / name)
        assert not [col for col in columns if "precond" in col]
        two_arm = _columns(both / name)
        assert columns == {col: two_arm[col] for col in columns}


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    import vqls_precond.experiments as exp

    def always_fails(cfg, seed):
        raise ZeroPivotError(0, 0.0)

    monkeypatch.setattr(exp, "generate_instance", always_fails)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 8, "seeds": [1],
                                    "vqls": {"depth": 1, "iterations": 5}}))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 3


def _write_tiny_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 4, "instance": "identity", "seeds": [1],
                                    "vqls": {"depth": 1, "iterations": 5}}))
    return cfg_path


def test_no_factorable_instance_exits_3(tmp_path, monkeypatch):
    import vqls_precond.experiments as exp

    def never_factors(A):
        raise ZeroPivotError(0, 0.0)

    monkeypatch.setattr(exp, "ilu0", never_factors)
    cfg = ExperimentConfig(kind="solve", n=4, instance="identity", seeds=[1])
    with pytest.raises(NoFactorableInstanceError):
        generate_instance(cfg, 1)
    cfg_path = _write_tiny_config(tmp_path)
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 3


def test_non_finite_operator_stops_training_and_exits_3(tmp_path, monkeypatch):
    import vqls_precond.experiments as exp
    real_build = exp.build_system

    def poisoned_build(A, b, mode):
        sys = real_build(A, b, mode)
        sys.op[0, 1] = np.nan
        return sys

    monkeypatch.setattr(exp, "build_system", poisoned_build)
    with pytest.raises(DivergedError):
        cmd_solve(tiny_solve_config(tmp_path / "direct"))
    cfg_path = _write_tiny_config(tmp_path)
    out = tmp_path / "r"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert not (out / "trace_plain.csv").exists()


def test_unrelated_runtime_error_propagates(tmp_path, monkeypatch):
    import vqls_precond.cli as cli

    def buggy_run(cfg):
        raise RuntimeError("not a numerical failure")

    monkeypatch.setattr(cli, "run", buggy_run)
    cfg_path = _write_tiny_config(tmp_path)
    with pytest.raises(RuntimeError, match="not a numerical failure"):
        main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
