"""Harness pipelines: CSV schemas, manifests, skip logic, determinism, CLI."""

import dataclasses
import json
import os
import statistics
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import vqls_precond.experiments as exp
from oracles import csr_from_dense, exact_mean_sem, make_system
from vqls_precond.cli import main
from vqls_precond.dense import lu_solve
from vqls_precond.embedding import DegenerateBlockError
from vqls_precond.experiments import (DEFAULT_SEEDS, MAX_N, MAX_SKIP_ATTEMPTS,
                                      ExperimentConfig, NoFactorableInstanceError, SeedStatus,
                                      generate_instance, load_config, mean_sem, run,
                                      write_trace_csv)
from vqls_precond.ilu import ZeroPivotError, ilu0
from vqls_precond.sparse import poisson_1d, random_rhs
from vqls_precond.vqls import DivergedError, TrainResult, VqlsConfig, train


MAX_SEED = 2 ** 63 - MAX_SKIP_ATTEMPTS   # the largest seed a config accepts


@pytest.fixture
def identity_instance(monkeypatch):
    """Every instance the commands draw is the n x n identity."""
    monkeypatch.setattr(exp, "random_sparse", lambda n, *args: csr_from_dense(np.eye(n)))


def tiny_config(out, **overrides):
    """A 4 x 4 ``solve`` config (seed 3, depth 1) with ``overrides`` replacing its fields."""
    vqls_kwargs = {"depth": 1, "iterations": 200, "mode": "direct"}
    vqls_kwargs.update(overrides.pop("vqls", {}))
    fields = {"kind": "solve", "n": 4, "density": 1.0, "seeds": [3], "output_dir": str(out)}
    return ExperimentConfig(vqls=VqlsConfig(**vqls_kwargs), **{**fields, **overrides})


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_identity_smoke_solve(tmp_path, identity_instance):
    cfg = tiny_config(tmp_path, vqls={"iterations": 2000})
    run(cfg)
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


def test_solution_csv_schema(tmp_path, identity_instance):
    cfg = tiny_config(tmp_path)
    run(cfg)
    header, rows = read_csv(tmp_path / "solution.csv")
    assert header == ["index", "x_exact", "x_vqls_plain", "x_vqls_precond"]
    assert len(rows) == 4


def test_solve_no_precond(tmp_path, identity_instance):
    cfg = tiny_config(tmp_path, no_precond=True)
    run(cfg)
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
    run(cfg1)
    run(cfg2)
    a, b = _masked_outputs(out1), _masked_outputs(out2)
    a.pop("manifest.json")
    b.pop("manifest.json")  # holds output_dir, which differs by design here
    assert a == b


def test_solve_pads_non_power_of_two(tmp_path):
    cfg = ExperimentConfig(kind="solve", n=6, seeds=[1], output_dir=str(tmp_path),
                           vqls=VqlsConfig(depth=1, iterations=40))
    run(cfg)
    header, rows = read_csv(tmp_path / "solution.csv")
    assert len(rows) == 6  # padded to 8 internally, truncated on extraction


@pytest.mark.parametrize("overrides", [
    {"dump_matrix": True},
    {"kind": "heat"},
    {"kind": "sweep_depth", "seeds": [3, 4], "depths": [1, 2]},
    {"kind": "spectrum", "no_precond": True},
], ids=["solve-dump-matrix", "heat", "sweep-depth", "spectrum-no-precond"])
def test_manifest_contents(tmp_path, identity_instance, overrides):
    # The manifest lists exactly the files the run wrote, and run returns the same names.
    cfg = tiny_config(tmp_path, **overrides)
    written = run(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["config"] == dataclasses.asdict(cfg)
    assert manifest["seeds"] == [{"requested": seed, "used": seed, "skipped_zero_pivot": []}
                                 for seed in cfg.seeds]
    on_disk = {path.name for path in tmp_path.iterdir()}
    assert set(manifest["artifacts"]) | {"manifest.json"} == on_disk
    assert sorted(written) == sorted(on_disk) and written[-1] == "manifest.json"
    assert ("instance.mtx" in on_disk) == cfg.dump_matrix


def test_dumped_matrix_replaces_the_file_whole(tmp_path, monkeypatch, identity_instance):
    (tmp_path / "instance.mtx").write_text("old bytes\n")
    real_replace = os.replace

    def refuse_matrix(src, dst):
        if os.path.basename(dst) == "instance.mtx":
            raise OSError("replace refused")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_matrix)
    with pytest.raises(OSError, match="replace refused"):
        run(tiny_config(tmp_path, dump_matrix=True))
    assert (tmp_path / "instance.mtx").read_text() == "old bytes\n"
    assert not list(tmp_path.glob("*.tmp"))


def _skip_first_ilu0(monkeypatch):
    """The first ``ilu0`` call after this hits a zero pivot; later calls factor."""
    calls = []

    def flaky_ilu0(A):
        calls.append(1)
        if len(calls) == 1:
            raise ZeroPivotError(0, 0.0)
        return ilu0(A)

    monkeypatch.setattr(exp, "ilu0", flaky_ilu0)


def test_csv_seed_columns_after_a_zero_pivot_redraw(tmp_path, monkeypatch, identity_instance):
    # Seed 5's first draw is skipped and redrawn as seed 6. sweep_raw.csv reports the
    # requested seeds, spectrum_raw.csv and condition.csv the seeds actually drawn.
    lineage = [{"requested": 5, "used": 6, "skipped_zero_pivot": [5]},
               {"requested": 9, "used": 9, "skipped_zero_pivot": []}]
    for kind in ("sweep_depth", "spectrum"):
        _skip_first_ilu0(monkeypatch)
        run(tiny_config(tmp_path / kind, kind=kind, seeds=[5, 9], depths=[1, 2]))
        manifest = json.loads((tmp_path / kind / "manifest.json").read_text())
        assert manifest["seeds"] == lineage
    assert _columns(tmp_path / "sweep_depth" / "sweep_raw.csv")["seed"] == ["5", "9", "5", "9"]
    assert _columns(tmp_path / "spectrum" / "condition.csv")["seed"] == ["6", "9"]
    assert _columns(tmp_path / "spectrum" / "spectrum_raw.csv")["seed"] == ["6"] * 4 + ["9"] * 4


def test_seed_columns_stay_integers_up_to_the_largest_seed(tmp_path, monkeypatch,
                                                           identity_instance):
    # The largest seed a config accepts, with every draw but the last skipped: the
    # seed drawn is 2**63 - 1, the largest int64.
    calls = []

    def ilu0_after_skips(A):
        calls.append(1)
        if len(calls) < MAX_SKIP_ATTEMPTS:
            raise ZeroPivotError(0, 0.0)
        return ilu0(A)

    monkeypatch.setattr(exp, "ilu0", ilu0_after_skips)
    run(tiny_config(tmp_path / "spectrum", kind="spectrum", seeds=[MAX_SEED]))
    for name in ("condition.csv", "spectrum_raw.csv"):
        assert set(_columns(tmp_path / "spectrum" / name)["seed"]) == {str(2 ** 63 - 1)}
    monkeypatch.setattr(exp, "ilu0", ilu0)
    run(tiny_config(tmp_path / "sweep", kind="sweep_depth", seeds=[MAX_SEED, 1], depths=[1]))
    assert _columns(tmp_path / "sweep" / "sweep_raw.csv")["seed"] == [str(MAX_SEED), "1"]


def test_zero_pivot_skip_lineage(tmp_path, monkeypatch):
    _skip_first_ilu0(monkeypatch)
    cfg = ExperimentConfig(kind="solve", n=8, seeds=[5], output_dir=str(tmp_path),
                           vqls=VqlsConfig(depth=1, iterations=5))
    A, b, factors, status = generate_instance(cfg, 5)
    assert status == SeedStatus(requested=5, used=6, skipped_zero_pivot=[5])


def test_heat_instance_is_the_rod_for_every_seed():
    cfg = ExperimentConfig(kind="heat", n=16, heat_rate=2.5, rod_length=3.0,
                           vqls=VqlsConfig(depth=0, mode="direct"))
    rod, b_rod = poisson_1d(16, 2.5, 3.0)
    for seed in (1, 7):
        A, b, _, status = generate_instance(cfg, seed)
        assert status == SeedStatus(requested=seed, used=seed, skipped_zero_pivot=[])
        for mine, theirs in ((A.row_ptr, rod.row_ptr), (A.col_idx, rod.col_idx),
                             (A.vals, rod.vals), (b, b_rod)):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def test_mean_sem_stub_and_brute_force():
    mean, sem = mean_sem(np.full((3, 2), 0.25))
    assert mean.tolist() == [0.25, 0.25] and sem.tolist() == [0.0, 0.0]
    values = np.array([[0.1, 4.0], [0.4, 1.0], [0.3, 2.0], [0.2, 3.0]])
    mean, sem = mean_sem(values)
    np.testing.assert_allclose(mean, np.mean(values, axis=0), rtol=1e-15)
    np.testing.assert_allclose(sem, np.std(values, axis=0, ddof=1) / 2.0, rtol=1e-15)


@pytest.mark.parametrize("shape", [(150, 128), (10, 20), (2, 20)])
def test_mean_sem_agrees_with_the_exact_summary(shape):
    samples = np.random.default_rng(shape[0]).uniform(0, 1, shape)
    mean, sem = mean_sem(samples)
    exact_mean, exact_sem = exact_mean_sem(samples)
    assert mean.shape == sem.shape == shape[1:]
    np.testing.assert_allclose(mean, exact_mean, rtol=1e-14, atol=0)
    assert np.all(np.abs(sem - exact_sem) <= 1e-14 * np.abs(exact_mean))


@pytest.mark.parametrize("samples", [[0.1] * 3, [1 / 3] * 10, [0.1], [-2.5e-300],
                                     [[0.1, 0.7, 1e300]]])
def test_mean_sem_of_identical_samples_is_the_sample_and_zero(samples):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, sem = mean_sem(samples)
    assert mean.tolist() == samples[0] and not np.any(sem)


def _summary_reprs(samples):
    """The mean and SEM columns of ``samples``, as the tables write them."""
    return [list(map(repr, column.tolist())) for column in mean_sem(samples)]


def test_sweep_depth_outputs_and_aggregates(tmp_path):
    for seeds in ([1, 2], [1, 2, 3]):       # an even and an odd median
        out = tmp_path / str(len(seeds))
        cfg = ExperimentConfig(kind="sweep_depth", n=8, seeds=seeds, depths=[1, 2],
                               output_dir=str(out), vqls=VqlsConfig(depth=1, iterations=25))
        run(cfg)
        table = _columns(out / "sweep.csv")
        assert list(table) == ["depth", "mean_cost_plain", "sem_plain", "mean_cost_precond",
                               "sem_precond", "n_seeds", "median_cost_plain",
                               "median_cost_precond"]
        raw = _columns(out / "sweep_raw.csv")
        assert list(raw) == ["depth", "seed", "final_cost_plain", "final_cost_precond"]
        k = len(seeds)
        assert raw["depth"] == ["1"] * k + ["2"] * k
        assert raw["seed"] == [str(seed) for seed in seeds] * 2
        assert table["n_seeds"] == [str(k)] * 2
        # every summary, recomputed from the raw file, is the table's cell bit for bit
        for name in ("plain", "precond"):
            costs = np.array(raw[f"final_cost_{name}"], dtype=float).reshape(2, k).T
            mean, sem = _summary_reprs(costs)     # costs: (seeds, depths)
            assert table[f"mean_cost_{name}"] == mean
            assert table[f"sem_{name}"] == sem
            assert table[f"median_cost_{name}"] == [repr(statistics.median(column))
                                                    for column in costs.T.tolist()]


def test_sweep_needs_two_seeds(tmp_path):
    with pytest.raises(ValueError):
        cfg = ExperimentConfig(kind="sweep_depth", n=8, seeds=[1], depths=[1],
                               output_dir=str(tmp_path))
        run(cfg)


def test_spectrum_identity_instance(tmp_path, identity_instance):
    cfg = ExperimentConfig(kind="spectrum", n=8, density=1.0, seeds=[1, 2],
                           output_dir=str(tmp_path))
    run(cfg)
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
    run(cfg)
    _, rows = read_csv(tmp_path / "spectrum.csv")
    for row in rows:
        assert abs(float(row[3]) - 1.0) < 1e-6


def test_spectrum_table_averages_the_raw_spectra_rank_by_rank(tmp_path):
    cfg = ExperimentConfig(kind="spectrum", n=8, density=1.0, seeds=[1, 2, 3],
                           output_dir=str(tmp_path))
    run(cfg)
    raw = _columns(tmp_path / "spectrum_raw.csv")
    table = _columns(tmp_path / "spectrum.csv")
    for name in ("plain", "precond"):
        spectra = np.array(raw[f"sigma_{name}"], dtype=float).reshape(3, 8)
        normalized = np.array([[v / s[0] for v in s] for s in spectra.tolist()])
        for group, values in ((f"sigma_{name}", spectra), (f"sigma_norm_{name}", normalized)):
            mean, sem = _summary_reprs(values)
            assert table[f"mean_{group}"] == mean
            assert table[f"sem_{group}"] == sem


def test_heat_pipeline(tmp_path):
    cfg = ExperimentConfig(kind="heat", n=16, seeds=[1], output_dir=str(tmp_path),
                           vqls=VqlsConfig(depth=0, iterations=300, mode="direct"))
    run(cfg)
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
    run(cfg)
    _, trace = read_csv(tmp_path / "trace_precond.csv")
    assert all(0.0 <= float(row[1]) <= 1.0 for row in trace)


def test_config_json_round_trip():
    cfg = ExperimentConfig(kind="sweep_depth", seeds=[4, 5], depths=[1, 3])
    data = dataclasses.asdict(cfg)
    again = ExperimentConfig.from_dict(data)
    assert again == cfg
    assert ExperimentConfig.from_dict(json.loads(json.dumps(data))) == cfg


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
    ci = load_config("sweep_depth", "ci")
    assert ci.seeds == [1, 2, 3] and ci.depths == [2, 6, 10]
    assert ci.vqls.iterations == 2000
    heat = load_config("heat", "ci")
    assert heat.vqls.mode == "direct" and heat.vqls.depth == 0
    paper = load_config("solve", "paper")
    assert paper.vqls.iterations == 10_000


def test_config_layers_merge_in_order(tmp_path):
    import vqls_precond.cli as cli

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"vqls": {"depth": 2}}))
    argv = ["heat", "--profile", "ci", "--config", str(cfg_path)]
    from_file = cli._load_config(cli._build_parser().parse_args(argv))
    assert from_file.vqls.mode == "direct" and from_file.vqls.depth == 2
    assert from_file.vqls.iterations == 2000 and from_file.seeds == [1, 2, 3]
    flagged = cli._load_config(cli._build_parser().parse_args(argv + ["--depth", "1"]))
    assert flagged.vqls.mode == "direct" and flagged.vqls.depth == 1 and flagged.depths == [1]


def test_config_layers_must_be_objects_of_the_requested_kind():
    for layer in ([1], "x", None, {"vqls": [1]}, {"vqls": None}):
        with pytest.raises(ValueError, match="must be objects"):
            load_config("solve", "ci", layer)
    with pytest.raises(ValueError, match="does not match"):
        load_config("solve", "ci", {"kind": "heat"})
    ci = load_config("sweep_depth", "ci")
    ci.seeds.append(4)
    assert load_config("sweep_depth", "ci").seeds == [1, 2, 3]


def test_cli_solve_smoke(tmp_path, capsys, identity_instance):
    cfg = {"n": 4, "density": 1.0, "seeds": [3],
           "vqls": {"depth": 1, "iterations": 50, "mode": "direct"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "solution.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_flag_overrides(tmp_path, identity_instance):
    cfg = {"n": 4, "density": 1.0, "seeds": [3],
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
    ("heat", {"n": 8, "seeds": [1], "rod_length": 0}, []),
    ("solve", {"vqls": {"trace_every": 5}}, ["--profile", "ci"]),     # removed knobs
    ("solve", {"vqls": {"adam_beta1": 0.5}}, ["--profile", "ci"]),
    ("solve", {"instance": "identity"}, ["--profile", "ci"]),
    ("solve", {"diag_offset": 1.0}, ["--profile", "ci"]),
    ("solve", None, ["--profile", "ci", "--seed", "-1"]),
    ("sweep-depth", {"n": 8, "seeds": [1, -2], "depths": [1]}, []),
    ("heat", {"n": 8, "seeds": [1], "rod_length": float("nan")}, []),
    ("heat", {"n": 8, "seeds": [1], "rod_length": float("inf")}, []),
    ("heat", {"n": 8, "seeds": [1], "heat_rate": 0}, []),
    ("heat", {"n": 8, "seeds": [1], "heat_rate": float("nan")}, []),
    ("heat", {"n": 8, "seeds": [1], "heat_rate": float("inf")}, []),
    ("heat", {"n": 8, "seeds": [1], "heat_rate": "1.0"}, []),
    ("heat", {"n": 8, "seeds": [1], "heat_rate": True}, []),
    ("solve", {"vqls": {"iterations": 2.5}}, ["--profile", "ci"]),
    ("solve", {"vqls": {"iterations": True}}, ["--profile", "ci"]),
    ("solve", {"vqls": {"depth": 1.5}}, ["--profile", "ci"]),
    ("solve", {"vqls": {"depth": True}}, ["--profile", "ci"]),
    ("heat", {"vqls": {"learning_rate": float("nan")}}, ["--profile", "ci"]),
    ("heat", {"vqls": {"learning_rate": float("inf")}}, ["--profile", "ci"]),
    ("heat", {"vqls": {"seed": -3}}, ["--profile", "ci"]),
    ("heat", {"vqls": {"seed": 1.5}}, ["--profile", "ci"]),
    ("solve", {"vqls": {"seed": True}}, ["--profile", "ci"]),
    ("solve", [1], ["--profile", "ci"]),                               # not an object
    ("solve", "x", ["--profile", "ci"]),
    ("solve", {"output_dir": 5}, ["--profile", "ci"]),                 # no --out given
    ("solve", {"no_precond": "false"}, ["--profile", "ci"]),
    ("solve", {"dump_matrix": "no"}, ["--profile", "ci"]),
    ("solve", {"density": True}, ["--profile", "ci"]),
    ("solve", {"vqls": {"preconditioned": "maybe"}}, ["--profile", "ci"]),
    ("heat", {"heat_rate": 1e-300}, ["--profile", "ci"]),              # rhs norm underflows
    ("heat", {"rod_length": 1e-160}, ["--profile", "ci"]),
    ("heat", {"heat_rate": 1e308}, ["--profile", "ci"]),               # squared norm overflows
    ("heat", {"rod_length": 1e200}, ["--profile", "ci"]),              # h^2 overflows
    ("heat", {"heat_rate": 1e157}, ["--profile", "ci"]),               # only M^-1 b overflows
    ("solve", {"n": 10 ** 400}, ["--profile", "ci"]),                  # n * n overflows a float
    ("sweep-depth", {"n": 10 ** 400}, ["--profile", "ci"]),
    ("spectrum", {"n": 10 ** 400}, ["--profile", "ci"]),
    ("heat", {"n": 10 ** 400}, ["--profile", "ci"]),                   # n + 1 overflows a float
    ("heat", {"n": MAX_N + 1}, ["--profile", "ci"]),
    ("sweep-depth", {"depths": [2, 2]}, ["--profile", "ci"]),
    ("heat", {"n": 1}, ["--profile", "ci"]),                           # rod without qubits
    ("spectrum", None, ["--profile", "ci", "--dump-matrix"]),         # nothing to dump
    ("sweep-depth", {"dump_matrix": True}, ["--profile", "ci"]),
    ("sweep-depth", {"n": 8, "seeds": [2 ** 63, 1], "depths": [1]}, []),  # beyond int64
    ("spectrum", {"n": 8, "seeds": [2 ** 63, 1]}, []),
    ("solve", None, ["--profile", "ci", "--seed", str(MAX_SEED + 1)]),  # redraws pass int64
    ("solve", {"n": 4, "density": 1.0, "vqls": {"iterations": 10 ** 18}},  # no array holds it
     ["--profile", "ci"]),
    ("solve", {"n": 4, "density": 1.0, "vqls": {"depth": 10 ** 18}}, ["--profile", "ci"]),
    ("sweep-depth", {"n": 4, "density": 1.0, "depths": [1, 10 ** 18]}, ["--profile", "ci"]),
], ids=["density-too-low", "sweep-one-seed", "negative-depth", "n-not-int",
        "repeated-seed", "heat-no-nodes", "heat-rod-length-zero", "trace-every",
        "adam-beta1", "instance", "diag-offset", "seed-flag-negative", "seed-negative",
        "heat-rod-length-nan", "heat-rod-length-inf", "heat-rate-zero", "heat-rate-nan",
        "heat-rate-inf", "heat-rate-string", "heat-rate-bool", "iterations-float",
        "iterations-bool", "depth-float", "depth-bool", "learning-rate-nan",
        "learning-rate-inf", "vqls-seed-negative", "vqls-seed-float", "vqls-seed-bool",
        "file-holds-list", "file-holds-string", "output-dir-int",
        "no-precond-string", "dump-matrix-string", "density-bool",
        "preconditioned-string", "heat-rate-tiny", "heat-rod-length-tiny",
        "heat-rate-huge", "heat-rod-length-huge", "heat-rate-precond-overflow",
        "solve-n-unbounded", "sweep-n-unbounded", "spectrum-n-unbounded",
        "heat-n-unbounded", "heat-n-above-max", "depths-duplicate", "heat-one-node",
        "spectrum-dump-matrix", "sweep-dump-matrix", "sweep-seed-2-63", "spectrum-seed-2-63",
        "seed-flag-above-max", "iterations-unbounded", "depth-unbounded", "depths-unbounded"])
def test_bad_config_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command, config,
                                            flags):
    monkeypatch.chdir(tmp_path)     # a config that slipped through would write here
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        flags = flags + ["--config", "cfg.json"]
    if not (isinstance(config, dict) and "output_dir" in config):
        flags = flags + ["--out", "run"]
    assert main([command] + flags) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert sorted(path.name for path in tmp_path.iterdir()) == ([] if config is None
                                                                 else ["cfg.json"])


@pytest.mark.parametrize("heat_rate", [1e-140, 1e150])
def test_extreme_heat_rate_that_passes_the_check_runs(tmp_path, heat_rate):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 8, "seeds": [1], "heat_rate": heat_rate,
                                    "vqls": {"iterations": 5}}))
    assert main(["heat", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0


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


@pytest.mark.parametrize("command", ["heat", "solve", "sweep-depth"])
def test_training_holds_no_ilu_factors(tmp_path, monkeypatch, command):
    # Every factor object and array ilu0 returned is garbage by the time a
    # command starts training.
    refs, trainings = [], []

    def tracked_ilu0(A):
        factors = real_ilu0(A)
        refs.extend(weakref.ref(obj) for obj in (factors, factors.L, factors.U))
        return factors

    def checked_train(*args, **kwargs):
        trainings.append([ref for ref in refs if ref() is not None])
        return real_train(*args, **kwargs)

    real_ilu0, real_train = exp.ilu0, exp.train
    monkeypatch.setattr(exp, "ilu0", tracked_ilu0)
    monkeypatch.setattr(exp, "train", checked_train)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_TOY_CONFIGS[command]))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert refs and trainings and all(alive == [] for alive in trainings)


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep me\n")
    cfg_path = _write_tiny_config(tmp_path)
    assert main(["solve", "--config", str(cfg_path), "--out", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(target) in err[0]
    assert target.read_text() == "keep me\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "taken"]


def test_out_under_a_file_exits_2(tmp_path, capsys):
    parent = tmp_path / "taken"
    parent.write_text("keep me\n")
    out = parent / "run"
    cfg_path = _write_tiny_config(tmp_path)
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(out) in err[0]
    assert parent.read_text() == "keep me\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "taken"]


def test_failed_write_exits_2_without_a_manifest(tmp_path, capsys):
    # A directory stands where sweep.csv goes: the run stops at that write, keeps the
    # file written before it and writes no manifest.
    out = tmp_path / "run"
    (out / "sweep.csv").mkdir(parents=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_TOY_CONFIGS["sweep-depth"]))
    assert main(["sweep-depth", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output error: "), err
    assert str(out / "sweep.csv") in err[0]
    assert sorted(path.name for path in out.iterdir()) == ["sweep.csv", "sweep_raw.csv"]
    assert (out / "sweep.csv").is_dir()


def test_write_csv_writes_named_columns_and_refuses_a_short_one(tmp_path):
    path = tmp_path / "table.csv"
    assert exp._write_csv(path, {"index": range(2), "x": [0.1, np.float64(0.25)]}) == "table.csv"
    assert path.read_text() == "index,x\n0,0.1\n1,0.25\n"
    with pytest.raises(ValueError):
        exp._write_csv(path, {"index": range(3), "x": [0.5, 0.25]})
    assert path.read_text() == "index,x\n0,0.1\n1,0.25\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    def always_fails(cfg, seed):
        raise ZeroPivotError(0, 0.0)

    monkeypatch.setattr(exp, "generate_instance", always_fails)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 8, "seeds": [1],
                                    "vqls": {"depth": 1, "iterations": 5}}))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 3


def _write_tiny_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 4, "density": 1.0, "seeds": [1],
                                    "vqls": {"depth": 1, "iterations": 5}}))
    return cfg_path


def test_no_factorable_instance_exits_3(tmp_path, monkeypatch):
    def never_factors(A):
        raise ZeroPivotError(0, 0.0)

    monkeypatch.setattr(exp, "ilu0", never_factors)
    cfg = ExperimentConfig(kind="solve", n=4, density=1.0, seeds=[1])
    with pytest.raises(NoFactorableInstanceError):
        generate_instance(cfg, 1)
    cfg_path = _write_tiny_config(tmp_path)
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 3


def test_non_finite_operator_stops_training_and_exits_3(tmp_path, monkeypatch, capsys,
                                                       identity_instance):
    real_build = exp.build_system

    def poisoned_build(A, b, mode):
        sys = real_build(A, b, mode)
        sys.block[0, 1] = np.nan
        return sys

    monkeypatch.setattr(exp, "build_system", poisoned_build)
    with pytest.raises(DivergedError):
        run(tiny_config(tmp_path / "direct"))
    cfg_path = _write_tiny_config(tmp_path)
    out = tmp_path / "r"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert not (out / "trace_plain.csv").exists()

    monkeypatch.setattr(exp, "build_system", real_build)

    def nan_entry(op):
        op[0, 1] = np.nan

    code, err = _run_with_seed5_precond(tmp_path, monkeypatch, capsys, nan_entry, "sweep-depth")
    assert code == 3 and "seed 5, arm precond" in err, err


def test_degenerate_operator_names_its_column_and_exits_3(tmp_path, monkeypatch, capsys,
                                                         identity_instance):
    def zeroed(op):
        op[:] = 0.0

    for command in ("solve", "sweep-depth"):
        code, err = _run_with_seed5_precond(tmp_path, monkeypatch, capsys, zeroed, command)
        assert code == 3
        assert "underflowed at iteration 0 in seed 5, arm precond" in err, (command, err)


def _run_with_seed5_precond(tmp_path, monkeypatch, capsys, poison, command):
    """(exit code, stderr) of an identity ``command`` run with seed 5's M^-1 A poisoned.

    ``solve`` runs seed 5 alone, ``sweep-depth`` seeds 3 and 5. Every (seed,
    arm) column trains in one lockstep run, so the failure must name the one
    column it came from; the run must leave no CSV behind.
    """
    real_precond = exp.preconditioned_system

    def poisoned_precond(A, b, factors):
        A_tilde, b_tilde = real_precond(A, b, factors)
        if np.array_equal(b, random_rhs(A.n, 5)):
            poison(A_tilde)
        return A_tilde, b_tilde

    monkeypatch.setattr(exp, "preconditioned_system", poisoned_precond)
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps({"n": 4, "density": 1.0,
                                    "seeds": [5] if command == "solve" else [3, 5],
                                    "depths": [1], "vqls": {"depth": 1, "iterations": 5}}))
    out = tmp_path / command
    capsys.readouterr()
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    assert not list(out.glob("*.csv"))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["heat", "solve"])
def test_failed_extraction_leaves_no_csv(tmp_path, monkeypatch, command):
    # Every solution is extracted before the first file is written.
    def degenerate(*args):
        raise DegenerateBlockError("solution block carries no weight")

    monkeypatch.setattr(exp, "extract_solution", degenerate)
    cfg_path = _write_tiny_config(tmp_path)
    out = tmp_path / "r"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
    assert not list(out.glob("*.csv"))


def test_unrelated_runtime_error_propagates(tmp_path, monkeypatch):
    import vqls_precond.cli as cli

    def buggy_run(cfg):
        raise RuntimeError("not a numerical failure")

    monkeypatch.setattr(cli, "run", buggy_run)
    cfg_path = _write_tiny_config(tmp_path)
    with pytest.raises(RuntimeError, match="not a numerical failure"):
        main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "r")])


def test_type_error_in_config_code_propagates(tmp_path, monkeypatch):
    import vqls_precond.cli as cli

    def buggy_load_config(*args):
        raise TypeError("a bug, not a config error")

    monkeypatch.setattr(cli, "load_config", buggy_load_config)
    with pytest.raises(TypeError, match="a bug"):
        main(["solve", "--out", str(tmp_path / "r")])
    assert not (tmp_path / "r").exists()


def test_write_trace_csv(tmp_path):
    sys = make_system(np.eye(2), [1.0, 0.0])
    result = train(sys, VqlsConfig(depth=0, iterations=3, mode="direct", seed=0))
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,cost,grad_norm,elapsed_s"
    assert len(lines) == 5  # header + iterations 0..3


def test_write_trace_csv_replaces_the_file_whole(tmp_path, monkeypatch):
    sys = make_system(np.eye(2), [1.0, 0.0])
    result = train(sys, VqlsConfig(depth=0, iterations=1, mode="direct", seed=0))
    path = tmp_path / "trace.csv"
    path.write_text("old bytes\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_trace_csv(result, path)
    assert path.read_text() == "old bytes\n"
    assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# streamed tables and traces

CHUNK = exp._CHUNK_ROWS
MiB = 1 << 20


def _whole_table_text(columns):
    """Oracle: the table as one string, built row by row with a per-cell format."""
    def cell(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    lines = [",".join(columns)]
    lines += [",".join(map(cell, row)) for row in zip(*columns.values(), strict=True)]
    return "\n".join(lines) + "\n"


def _whole_trace_text(result):
    """Oracle: the trace as one string, built row by row."""
    rows = zip(result.costs.tolist(), result.grad_norms.tolist(), result.elapsed.tolist())
    lines = ["iteration,cost,grad_norm,elapsed_s"]
    lines += [f"{it},{cost!r},{norm!r},{t:.6f}" for it, (cost, norm, t) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def _trace(steps):
    """A TrainResult of ``steps`` rows with awkward floats; the writer reads no params."""
    rng = np.random.default_rng(steps)
    costs = rng.uniform(0, 1, steps) ** 7
    costs[::97] = np.inf
    return TrainResult(params=None, best_params=None, costs=costs,
                       grad_norms=rng.standard_normal(steps) * 1e-9,
                       elapsed=np.cumsum(rng.uniform(0, 1e-3, steps)))


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_write_csv_streams_the_bytes_of_the_whole_table(tmp_path, rows):
    rng = np.random.default_rng(rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[::13] = np.inf
    floats[5::17] = -np.inf
    singles = (rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)).astype(np.float32)
    singles[::11] = -np.inf
    mean, sem = mean_sem(rng.uniform(0, 1, (rows, 3)).T)
    columns = {
        "range": range(rows),
        "list": (floats / 7).tolist(),
        "numpy_scalars": list(floats[::-1]),
        "ints": [rows] * rows,
        "mean": mean,
        "sem": sem,
        "float64": floats,
        "float32": singles,
        "int64": rng.integers(-2**62, 2**62, rows),
        "bool": floats > 0,
        "strided": np.repeat(floats, 2)[::2],
    }
    path = tmp_path / "table.csv"
    assert exp._write_csv(path, columns) == "table.csv"
    assert path.read_text() == _whole_table_text(columns)


@pytest.mark.parametrize("steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_write_trace_csv_streams_the_bytes_of_the_whole_trace(tmp_path, steps):
    result = _trace(steps)
    path = tmp_path / "trace.csv"
    assert write_trace_csv(result, path) == "trace.csv"
    assert path.read_text() == _whole_trace_text(result)


def _traced_peak(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_holds_one_chunk_not_the_table(tmp_path):
    rows = 200_000
    columns = {"index": range(rows), "x": np.linspace(0, np.pi, rows) ** 0.5,
               "y": (np.arange(rows) / 7).tolist()}
    path = tmp_path / "table.csv"
    peak = _traced_peak(lambda: exp._write_csv(path, columns))
    assert path.stat().st_size > 8 * MiB
    assert peak < 1 * MiB, peak


def test_write_trace_csv_holds_one_chunk_not_the_trace(tmp_path):
    result = _trace(100_001)
    path = tmp_path / "trace.csv"
    peak = _traced_peak(lambda: write_trace_csv(result, path))
    assert path.stat().st_size > 5 * MiB
    assert peak < 1 * MiB, peak


class _FailsOnThirdWrite:
    """A text file whose third ``write`` raises; the first two are flushed to disk.

    ``seen`` gets the text of each write that went through, then the file's
    content on disk when the third one raised.
    """

    def __init__(self, f, seen):
        self.f, self.seen = f, seen

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)

    def write(self, text):
        if len(self.seen) == 2:
            with open(self.f.name) as on_disk:
                self.seen.append(on_disk.read())
            raise OSError("disk full")
        self.seen.append(text)
        self.f.write(text)
        self.f.flush()


@pytest.mark.parametrize("write", [
    lambda path: exp._write_csv(path, {"index": range(2 * CHUNK), "x": np.ones(2 * CHUNK)}),
    lambda path: write_trace_csv(_trace(2 * CHUNK), path),
], ids=["table", "trace"])
def test_a_write_failing_after_the_first_chunk_keeps_the_old_file(tmp_path, monkeypatch,
                                                                   write):
    path = tmp_path / "out.csv"
    path.write_text("old bytes\n")
    seen, opened = [], []
    real_open = open

    def open_failing(file, *args, **kwargs):
        opened.append(file)
        return _FailsOnThirdWrite(real_open(file, *args, **kwargs), seen)

    monkeypatch.setattr(exp, "open", open_failing, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    header, first_chunk, on_disk = seen
    assert first_chunk.count("\n") == CHUNK and on_disk == header + first_chunk
    assert [p.name for p in opened] == ["out.csv.tmp"]
    assert path.read_text() == "old bytes\n"
    assert not list(tmp_path.glob("*.tmp"))
