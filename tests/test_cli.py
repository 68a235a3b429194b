import json
import time
import warnings

import numpy as np
import pytest

from shlattice import BoundaryForcing, conjugate_state, make_params, run_model
from shlattice.cli import _create_unique, main, resolve_config


def newest_csv(directory):
    paths = sorted(directory.glob("*.csv"))
    assert paths, f"no CSV written in {directory}"
    return paths[-1]


def err_lines(err):
    return err.strip().splitlines()


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDispersionExperiment:
    def test_csv_and_values(self, tmp_path):
        code = main(["dispersion", "--r", "0.1", "--k-min", "0.5",
                     "--k-max", "1.5", "--k-steps", "21",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(newest_csv(tmp_path))
        assert header == ["k", "lambda_theory", "lambda_measured"]
        assert len(rows) == 21
        mid = rows[10]   # k = 1.0
        assert float(mid[0]) == pytest.approx(1.0)
        assert float(mid[1]) == pytest.approx(0.1, abs=1e-12)
        assert float(mid[2]) == pytest.approx(0.1, abs=1e-5)

    def test_manifest_written(self, tmp_path):
        main(["dispersion", "--k-steps", "3", "--output-dir", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for key in ("experiment", "config", "csv", "package_version",
                    "rng", "wall_time_s", "created_utc"):
            assert key in manifest
        assert manifest["experiment"] == "dispersion"
        assert (tmp_path / manifest["csv"]).exists()


class TestBoundaryProfilesExperiment:
    def test_columns_match_wall_profiles(self, tmp_path):
        code = main(["boundary-profiles", "--p", "1", "--sign", "upper",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(newest_csv(tmp_path))
        assert header == ["x", "alpha_profile", "beta_profile",
                          "alpha_profile_xx", "beta_profile_xx"]
        vals = np.array(rows, dtype=float)
        assert np.all(np.isfinite(vals))
        assert vals[0, 0] == pytest.approx(-np.pi)
        assert vals[-1, 0] == pytest.approx(np.pi)


class TestConfigHandling:
    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 0.1, "bogus-knob": 3}))
        code = main(["dispersion", "--config", str(cfg),
                     "--output-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "bogus-knob" in err

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 0.5, "k-steps": 3}))
        code = main(["dispersion", "--config", str(cfg), "--r", "0.25",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["r"] == pytest.approx(0.25)
        assert manifest["config"]["k-steps"] == 3

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ValueError):
            resolve_config("dispersion", {"experiment": "compare"}, {})

    def test_bad_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dispersion", "--no-such-flag", "1"])
        assert exc.value.code == 1

    def test_config_before_experiment_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k-steps": 3}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "dispersion", "--output-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert "shlattice: error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_bad_value_exits_one(self, tmp_path):
        code = main(["dispersion", "--r", "not-a-number",
                     "--output-dir", str(tmp_path)])
        assert code == 1


class TestDeterminism:
    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        args = ["simulate-model", "--random-init", "--seed", "42",
                "--t-end", "5", "--n-elements", "4", "--init-amp", "0.05"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(d1)]) == 0
        time.sleep(0.01)
        assert main(args + ["--output-dir", str(d2)]) == 0
        b1 = newest_csv(d1).read_bytes()
        b2 = newest_csv(d2).read_bytes()
        assert b1 == b2

    def test_seed_changes_random_runs(self, tmp_path):
        base = ["simulate-model", "--random-init", "--t-end", "2",
                "--n-elements", "4"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(base + ["--seed", "1", "--output-dir", str(d1)])
        main(base + ["--seed", "2", "--output-dir", str(d2)])
        assert newest_csv(d1).read_bytes() != newest_csv(d2).read_bytes()


class TestOtherExperiments:
    def test_boundary_select(self, tmp_path):
        code = main(["boundary-select", "--sign", "upper", "--r", "0.05",
                     "--n-elements", "2", "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(newest_csv(tmp_path))
        assert header == ["t", "re_fraction", "im_fraction"]
        assert float(rows[-1][1]) <= 0.05   # sin-locked by the end

    def test_boundary_equilibrium(self, tmp_path):
        code = main(["boundary-equilibrium", "--alpha", "0.01", "--beta", "0",
                     "--t-end", "60", "--n-elements", "4",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        header, _ = read_rows(newest_csv(tmp_path))
        assert header == ["t", "re_a1", "im_a1", "predicted_re_a1"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "predicted_re_a1" in manifest
        assert "final_re_a1" in manifest

    def test_simulate_direct_spectral(self, tmp_path):
        code = main(["simulate-direct", "--scheme", "spectral-etd",
                     "--r", "0.1", "--t-end", "1", "--n-elements", "4",
                     "--m-samples", "32", "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(newest_csv(tmp_path))
        assert header == ["x", "u"]
        assert len(rows) == 4 * 32

    def test_simulate_direct_bounded(self, tmp_path):
        code = main(["simulate-direct", "--scheme", "bounded-imex",
                     "--kind", "even", "--alpha", "0.05", "--t-end", "0.5",
                     "--n-elements", "2", "--m-samples", "32",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(newest_csv(tmp_path))
        assert len(rows) == 2 * 32 + 1

    def test_compare_single_run(self, tmp_path):
        code = main(["compare", "--r", "0.02", "--n-elements", "8",
                     "--t-end", "20", "--n-samples", "5",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(newest_csv(tmp_path))
        assert header == ["t", "sup_error"]
        assert float(rows[-1][1]) < 0.01

    def test_compare_ladder(self, tmp_path):
        code = main(["compare", "--r-ladder", "0.08,0.04", "--n-elements", "8",
                     "--n-samples", "10", "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(newest_csv(tmp_path))
        assert header == ["r", "terminal_sup_error", "normalised_error"]
        assert len(rows) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "convergence_slope" in manifest

    def test_divergence_exits_two(self, tmp_path, capsys):
        # an explicit step at this amplitude is wildly unstable for the cubic
        code = main(["simulate-model", "--init-amp", "1e7", "--t-end", "5",
                     "--dt", "0.05", "--n-elements", "4",
                     "--output-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "divergence" in err
        assert err_lines(err) == [
            "error: numerical divergence: lattice model diverged at step 1, "
            "t=0.05: NaN/Inf"]

    def test_bounded_divergence_exits_two(self, tmp_path, capsys):
        code = main(["simulate-direct", "--scheme", "bounded-imex",
                     "--init-amp", "1e3", "--t-end", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bounded solve diverged" in err
        assert err_lines(err) == [
            "error: numerical divergence: bounded solve diverged at step 3, "
            "t=0.0461538: NaN/Inf"]

    def test_spectral_divergence_exits_two_without_warnings(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate-direct", "--scheme", "spectral-etd",
                         "--init-amp", "1e200", "--t-end", "1",
                         "--output-dir", str(tmp_path)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert err_lines(capsys.readouterr().err) == [
            "error: numerical divergence: spectral solve diverged at step 1, "
            "t=0.05: NaN/Inf"]

    @pytest.mark.parametrize("args, solver", [
        (["simulate-direct", "--scheme", "spectral-etd", "--init-amp", "nan"],
         "spectral solve"),
        (["simulate-model", "--init-amp", "nan"], "lattice model"),
        (["simulate-direct", "--scheme", "spectral-etd", "--init-amp", "inf"],
         "spectral solve"),
        (["simulate-direct", "--scheme", "spectral-etd", "--init-amp=-inf"],
         "spectral solve"),
        (["simulate-model", "--init-amp", "inf"], "lattice model"),
        (["simulate-model", "--init-amp=-inf", "--random-init"], "lattice model"),
    ])
    def test_nonfinite_init_exits_one(self, tmp_path, capsys, args, solver):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--t-end", "1", "--output-dir", str(tmp_path)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert err_lines(capsys.readouterr().err) == [
            f"error: {solver}: start state contains NaN/Inf"]

    def test_bounded_nonfinite_init_exits_one(self, tmp_path, capsys):
        for amp in ("nan", "inf", "-inf"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["simulate-direct", "--scheme", "bounded-imex",
                             f"--init-amp={amp}", "--t-end", "1",
                             "--output-dir", str(tmp_path)])
            assert code == 1
            assert [str(w.message) for w in caught] == []
            err = capsys.readouterr().err
            assert "NaN/Inf" in err
            assert err_lines(err) == ["error: bounded solve: start state contains NaN/Inf"]

    @pytest.mark.parametrize("args, message", [
        (["dispersion", "--k-steps", "2", "--dt", "-0.02"], "dt must be positive, got -0.02"),
        (["dispersion", "--k-steps", "2", "--dt", "0"], "dt must be positive, got 0.0"),
        (["dispersion", "--k-steps", "2", "--t-fit", "0"], "t_end must exceed the start time"),
        (["simulate-direct", "--t-end", "0"], "t_end must exceed the start time"),
        (["simulate-direct", "--t-end", "-5"], "t_end must exceed the start time"),
        (["simulate-direct", "--dt", "0"], "dt must be positive"),
        (["simulate-direct", "--scheme", "bounded-imex", "--t-end", "0"],
         "t_end must exceed the start time"),
        (["simulate-direct", "--scheme", "bounded-imex", "--dt", "-0.001"],
         "dt must be positive"),
        (["simulate-model", "--t-end", "0"], "t_end must exceed the start time"),
        (["simulate-model", "--dt", "-0.05"], "dt must be positive"),
        (["boundary-select", "--dt", "0"], "dt must be positive"),
        (["boundary-select", "--t-end", "-1"], "t_end must exceed the start time"),
        (["boundary-equilibrium", "--dt", "0"], "dt must be positive"),
        (["compare", "--r", "0.1", "--t-end", "0"], "t_end must exceed the start time"),
        (["compare", "--r", "0.1", "--dt-model", "0"], "dt must be positive"),
        (["compare", "--r", "0.1", "--n-samples", "0"], "n_samples must be at least 1"),
        (["compare"], "the horizon 10/r needs r > 0, got r = 0.0"),
        (["compare", "--r", "-0.1"], "the horizon 10/r needs r > 0, got r = -0.1"),
        (["compare", "--r-ladder", "0.1,0", "--n-elements", "4"],
         "the horizon 10/r needs r > 0, got r = 0.0"),
        (["dispersion", "--k-steps", "2", "--eps0", "0"],
         "eps0 must be finite and positive, got 0.0"),
        (["compare", "--r-ladder", "", "--r", "0.1", "--t-end", "1"],
         "an r-ladder needs at least two distinct rungs, got ()"),
        (["compare", "--r-ladder", "0.1", "--n-elements", "4"],
         "an r-ladder needs at least two distinct rungs, got (0.1,)"),
        (["compare", "--r-ladder", "0.1,0.1", "--n-elements", "4"],
         "an r-ladder needs at least two distinct rungs, got (0.1, 0.1)"),
        # fast forcing (a warning at omega = 25): the step rule rejects t_end
        # before the forcing check runs
        (["simulate-model", "--kind", "even", "--alpha", "0.1", "--alpha-omega", "3",
          "--t-end", "0"], "t_end must exceed the start time"),
        (["simulate-model", "--kind", "even", "--alpha", "0.1", "--alpha-omega", "25",
          "--t-end", "-5"], "t_end must exceed the start time"),
        (["simulate-direct", "--scheme", "bounded-imex", "--alpha", "0.1",
          "--alpha-omega", "3", "--t-end", "0"], "t_end must exceed the start time"),
        (["simulate-direct", "--scheme", "bounded-imex", "--alpha", "0.1",
          "--alpha-omega", "25", "--t-end", "-5"], "t_end must exceed the start time"),
    ])
    def test_bad_time_arguments_exit_one(self, tmp_path, capsys, args, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--output-dir", str(tmp_path)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        (line,) = err_lines(capsys.readouterr().err)
        assert line.startswith("error: ") and message in line
        assert not list(tmp_path.glob("*.csv"))

    def test_fast_forcing_warns(self, tmp_path, capsys):
        code = main(["simulate-model", "--kind", "even", "--alpha", "0.05",
                     "--alpha-omega", "25.0", "--t-end", "2",
                     "--n-elements", "4", "--output-dir", str(tmp_path)])
        assert code == 0
        assert "slowly varying" in capsys.readouterr().err

    def test_zero_accel_warn_threshold_is_kept(self, tmp_path, capsys):
        # slow forcing: under the default threshold 1, over a threshold of 0
        args = ["simulate-model", "--kind", "even", "--alpha", "0.01",
                "--alpha-omega", "0.5", "--t-end", "2", "--n-elements", "4",
                "--output-dir", str(tmp_path)]
        assert main(args) == 0
        assert "slowly varying" not in capsys.readouterr().err
        assert main(args + ["--accel-warn", "0"]) == 0
        assert "slowly varying" in capsys.readouterr().err

    def test_simulate_model_columns_are_sampled_amplitudes(self, tmp_path):
        code = main(["simulate-model", "--kind", "odd", "--alpha", "0.02",
                     "--beta", "0.01", "--r", "0.1", "--n-elements", "3",
                     "--random-init", "--seed", "5", "--init-amp", "0.1",
                     "--t-end", "3", "--dt", "0.05", "--sample-stride", "7",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(newest_csv(tmp_path))
        assert header == ["t", "re_a1", "im_a1", "re_a2", "im_a2", "re_a3", "im_a3"]
        rng = np.random.default_rng(5)
        a0 = 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        params = make_params(r=0.1, gamma=1.0, p=1, n_elements=3, m_samples=32)
        traj = run_model(conjugate_state(0.0, a0), params,
                         BoundaryForcing.odd_given(0.02, 0.01, p=1), 3.0, 0.05,
                         sample_stride=7)
        expected = [[t] + [v for aj in a for v in (aj.real, aj.imag)]
                    for t, a in zip(traj.times, traj.a)]
        assert rows == [["%.12g" % v for v in row] for row in expected]


class TestSharedOutputDir:
    def test_two_runs_keep_both_outputs(self, tmp_path):
        args = ["boundary-profiles", "--profile-samples", "5",
                "--output-dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0
        csvs = sorted(tmp_path.glob("*.csv"))
        runs = sorted(tmp_path.glob("*.manifest.json"))
        assert len(csvs) == 2 and len(runs) == 2
        for path in runs:
            manifest = json.loads(path.read_text())
            assert path.name == manifest["csv"].replace(".csv", ".manifest.json")
        latest = json.loads((tmp_path / "manifest.json").read_text())
        assert latest["csv"] in {p.name for p in csvs}
        assert latest["created_utc"] == max(
            json.loads(p.read_text())["created_utc"] for p in runs)

    def test_colliding_csv_name_takes_a_suffix(self, tmp_path):
        names = []
        for _ in range(3):
            path, fh = _create_unique(tmp_path, "run-20000101T000000")
            fh.close()
            names.append(path.name)
        assert names == ["run-20000101T000000.csv", "run-20000101T000000_2.csv",
                         "run-20000101T000000_3.csv"]
