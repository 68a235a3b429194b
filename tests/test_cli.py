import json
import time
import warnings

import numpy as np
import pytest

from shlattice import BoundaryForcing, conjugate_state, make_params, run_model
from shlattice.cli import RUNNERS, _create_unique, main, resolve_config


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

    @pytest.mark.parametrize("given, step", [([], 0.1), (["--dt", "0.02"], 0.02)])
    def test_manifest_names_the_step_of_each_fit(self, tmp_path, given, step):
        # the README command: |lambda_k| <= 1.46, so T/50 = 0.1 binds at
        # every k; an explicit --dt keeps the old fixed step
        code = main(["dispersion", "--r", "0.1", "--k-min", "0.5", "--k-max", "1.5",
                     "--k-steps", "21", "--output-dir", str(tmp_path), *given])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["dt_fit"] == [step] * 21
        assert manifest["config"]["dt"] == (step if given else None)

    def test_fast_decaying_mode_exits_zero(self, tmp_path):
        # a decay of e^-296 over --t-fit 10: the fit stops at 1e-30 of the
        # start, above where log|u_k| leaves its line (it exited 2, blaming
        # the seed)
        code = main(["dispersion", "--r", "-2", "--k-min", "2.5", "--k-max", "2.5",
                     "--k-steps", "1", "--t-fit", "10", "--output-dir", str(tmp_path)])
        assert code == 0
        _, rows = read_rows(newest_csv(tmp_path))
        assert float(rows[0][2]) == pytest.approx(-29.5625, abs=1e-10)

    def test_stiff_fit_with_few_samples_exits_two(self, tmp_path, capsys):
        # lambda = -1235 at the step 0.02 passes the fit's floor at sample
        # 3, where the misfit check let -1234.99997252 through; --dt 0.001
        # keeps the samples a fit needs and writes -1235
        argv = ["dispersion", "--r", "-10", "--k-min", "6", "--k-max", "6", "--k-steps", "1",
                "--t-fit", "1", "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        assert err_lines(capsys.readouterr().err) == [
            "error: numerical divergence: growth-rate fit of mode 6.0 failed: |u_k| "
            "fell below 1e-30 of its start at t=0.06, before the 10 samples a fit needs"]
        assert not list(tmp_path.glob("*.csv"))
        assert main(argv + ["--dt", "0.001"]) == 0
        _, rows = read_rows(newest_csv(tmp_path))
        assert rows[0][2] == "-1235"

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

    @pytest.mark.parametrize("cfg, message", [
        ({"n-elements": 2.7}, "n-elements must be a whole number, got 2.7"),
        ({"k-steps": float("inf")}, "k-steps must be a whole number, got inf"),
        ({"seed": True}, "seed is not a switch, got True"),
        ({"r": False}, "r is not a switch, got False"),
        # a value of the wrong shape (a list or an object for a scalar key)
        ({"r": [1]}, "r takes one value, got [1]"),
        ({"experiment": "compare", "r-ladder": 5},
         "r-ladder must be a comma string or a list of numbers, got 5"),
        ({"experiment": "simulate-model", "t-end": [1]}, "t-end takes one value, got [1]"),
        # a switch takes true/false or their words, never another value
        ({"experiment": "boundary-select", "with-oracle": "maybe"},
         "with-oracle must be true or false, got 'maybe'"),
        ({"experiment": "boundary-select", "with-oracle": 2},
         "with-oracle must be true or false, got 2"),
        # an integer too large for a float
        ({"r": 10 ** 400}, f"r must be a number, got {10 ** 400}"),
    ])
    def test_config_value_of_wrong_type_exits_one(self, tmp_path, capsys, cfg, message):
        # dispersion unless the config names another experiment
        experiment = cfg.get("experiment", "dispersion")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k-steps": 2, **cfg} if experiment == "dispersion" else cfg))
        code = main([experiment, "--config", str(path), "--output-dir", str(tmp_path)])
        assert code == 1
        assert err_lines(capsys.readouterr().err) == [f"error: {message}"]
        assert not list(tmp_path.glob("*.csv"))

    def test_derived_and_text_keys_are_typed(self):
        # keys whose default None is derived stay None until given, then take
        # numbers; a number for a text key reads as text
        assert resolve_config("compare", {}, {})["r-ladder"] is None
        cfg = resolve_config("compare", {"r-ladder": [0.04, 0.02], "t-end": 5,
                                         "output-dir": 5}, {})
        assert cfg["r-ladder"] == (0.04, 0.02) and cfg["t-end"] == 5.0
        assert isinstance(cfg["t-end"], float) and cfg["output-dir"] == "5"
        flags = resolve_config("compare", {}, {"r-ladder": "0.04,0.02,", "t-end": "7"})
        assert flags["r-ladder"] == (0.04, 0.02) and flags["t-end"] == 7.0
        assert resolve_config("compare", {}, {"r-ladder": ""})["r-ladder"] == ()
        # a switch reads true/false and yes/no, on/off, 1/0 in any case
        assert resolve_config("boundary-select", {"with-oracle": "Yes"}, {})["with-oracle"] is True
        assert resolve_config("boundary-select", {"with-oracle": "off"}, {})["with-oracle"] is False

    def test_whole_float_config_value_is_an_integer(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k-steps": 3.0, "seed": 4.0}))
        assert main(["dispersion", "--config", str(path), "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["k-steps"] == 3 and manifest["config"]["seed"] == 4
        assert isinstance(manifest["config"]["seed"], int)
        # a whole number reads the same from a flag
        flags = resolve_config("dispersion", {}, {"k-steps": "2.0"})
        assert flags["k-steps"] == 2 and isinstance(flags["k-steps"], int)

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

    def test_boundary_select_horizon_follows_gamma(self, tmp_path):
        # the default horizon is -10/fast, with fast = r - 8 g^2/h^2
        code = main(["boundary-select", "--gamma", "0.5", "--r", "0.02",
                     "--n-elements", "2", "--dt", "0.1", "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        fast = 0.02 - 8.0 * 0.25 / (2 * np.pi) ** 2
        assert manifest["t_end"] == pytest.approx(-10.0 / fast, rel=1e-12)

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

    def test_boundary_equilibrium_zero_right_wall(self, tmp_path, capsys):
        # --right-forcing zero leaves the right wall unforced: the rows are
        # run_model's with right = (0, 0), bit for bit (800 steps, stride 2)
        flags = {"alpha": "0.1", "beta": "0.02", "t-end": "40", "n-elements": "3"}
        params = make_params(r=0.0, gamma=1.0, p=1, n_elements=3, m_samples=32)
        runner = RUNNERS["boundary-equilibrium"]
        _, rows, _ = runner(resolve_config("boundary-equilibrium", {},
                                           {**flags, "right-forcing": "zero"}), params)
        traj = run_model(conjugate_state(0.0, np.zeros(3, complex)), params,
                         BoundaryForcing.even_given(0.1, 0.02, p=1, right=(0.0, 0.0)),
                         40.0, 0.05, sample_stride=2)
        expected = np.array([traj.times, traj.a[:, 0].real, traj.a[:, 0].imag]).T
        assert np.array_equal(np.array(rows)[:, :3], expected)
        _, same, _ = runner(resolve_config("boundary-equilibrium", {}, flags), params)
        assert not np.array_equal(np.array(same)[:, :3], expected)
        code = main(["boundary-equilibrium", "--right-forcing", "bogus",
                     "--output-dir", str(tmp_path)])
        assert code == 1 and not list(tmp_path.iterdir())
        assert "right-forcing must be one of same, zero, got 'bogus'" in capsys.readouterr().err

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

    def test_simulate_direct_spectral_any_sample_count(self, tmp_path):
        code = main(["simulate-direct", "--scheme", "spectral-etd", "--n-elements", "3",
                     "--t-end", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        _, rows = read_rows(newest_csv(tmp_path))
        assert len(rows) == 3 * 32

    def test_simulate_direct_bounded_defaults_to_even_walls(self, tmp_path):
        args = ["simulate-direct", "--scheme", "bounded-imex", "--alpha", "0.05",
                "--t-end", "0.1", "--n-elements", "2", "--m-samples", "16"]
        assert main(args + ["--output-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--kind", "even", "--output-dir", str(tmp_path / "b")]) == 0
        assert newest_csv(tmp_path / "a").read_bytes() == newest_csv(tmp_path / "b").read_bytes()
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["config"]["kind"] is None and manifest["kind"] == "even"

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
        # each rung to 10/r in 10 samples, at the largest step each allows:
        # the model's derived 2.08 and 2.59, the oracle's cap 1.0
        assert manifest["dt_model"] == pytest.approx([12.5 / 7, 25.0 / 10])
        assert manifest["dt_oracle"] == pytest.approx([12.5 / 13, 25.0 / 25])

    @pytest.mark.parametrize("given, taken", [([], 20.0 / 10), (["--dt-model", "0.1"], 0.1)])
    def test_compare_manifest_names_the_model_step(self, tmp_path, given, taken):
        # by default the run steps at the largest step it allows (2.95
        # here), in whole steps per sample; an explicit --dt-model keeps
        # its meaning
        code = main(["compare", "--r", "0.02", "--n-elements", "8", "--t-end", "20",
                     "--n-samples", "5", "--output-dir", str(tmp_path), *given])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["dt_model"] == pytest.approx(taken, rel=1e-12)
        assert manifest["config"]["dt-model"] == (float(given[1]) if given else None)

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

    def test_compare_step_budget_names_the_given_step(self, tmp_path, capsys):
        # 40 samples over 10/r = 200 at the given 1e-12: 2e14 steps in all
        code = main(["compare", "--r", "0.05", "--dt-model", "1e-12",
                     "--output-dir", str(tmp_path)])
        assert code == 1
        assert err_lines(capsys.readouterr().err) == [
            "error: a span of 200 at dt=1e-12 needs 2e+14 steps, more than the budget "
            "of 10,000,000"]
        assert not list(tmp_path.glob("*.csv"))

    def test_model_step_gate_counts_r(self, tmp_path, capsys):
        # the gate is 2.785 / (|r - 2c| + 2c), not a fixed 0.49: a step of
        # 1.0 runs at r = 0.05 (gate 7.8), and 0.45 is refused at r = -6
        # (gate 0.43), where RK4 would amplify the alternating mode
        # about 1.14 times per step
        args = ["simulate-model", "--t-end", "100", "--output-dir", str(tmp_path)]
        assert main(args + ["--r", "0.05", "--dt", "1.0"]) == 0
        assert main(args + ["--r", "-6", "--dt", "0.45"]) == 1
        assert err_lines(capsys.readouterr().err) == [
            "error: dt=0.4484304932735426 exceeds the stability margin 0.4348"]

    def test_bounded_divergence_exits_two(self, tmp_path, capsys):
        code = main(["simulate-direct", "--scheme", "bounded-imex",
                     "--init-amp", "1e3", "--t-end", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bounded solve diverged" in err
        assert err_lines(err) == [
            "error: numerical divergence: bounded solve diverged at step 5, "
            "t=0.0769231: NaN/Inf"]

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

    def test_huge_spectral_step_exits_two_without_warnings(self, tmp_path, capsys):
        # the ETDRK4 coefficients overflow at dt = 1e200; the loop's NaN/Inf
        # check is the one report, where eleven RuntimeWarnings came first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate-direct", "--scheme", "spectral-etd", "--r", "0.3",
                         "--t-end", "1e200", "--dt", "1e200", "--output-dir", str(tmp_path)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert err_lines(capsys.readouterr().err) == [
            "error: numerical divergence: spectral solve diverged at step 1, "
            "t=1e+200: NaN/Inf"]

    def test_dispersion_mode_that_underflows_exits_two(self, tmp_path, capsys):
        # every value in range; the mode reaches 0 at t = 41.98, where the
        # fit used to take log(0) and write a NaN rate with exit 0.  It falls
        # past the fit's floor at its second step, before a line can be fitted
        code = main(["dispersion", "--k-min", "170", "--k-max", "170", "--k-steps", "1",
                     "--t-fit", "100", "--output-dir", str(tmp_path)])
        assert code == 2
        assert err_lines(capsys.readouterr().err) == [
            "error: numerical divergence: growth-rate fit of mode 170.0 failed: |u_k| "
            "fell below 1e-30 of its start at t=0.04, before the 10 samples a fit needs"]
        assert not list(tmp_path.glob("*.csv"))

    @staticmethod
    def nonlinear_dispersion_seed(tmp_path, capsys, given, misfit):
        # eps0 = 1 is far from linear at r = 0.1; the fit used to report
        # -0.1375 for the linear rate 0.1 and exit 0
        code = main(["dispersion", "--r", "0.1", "--k-min", "1", "--k-max", "1",
                     "--k-steps", "1", "--eps0", "1", "--output-dir", str(tmp_path), *given])
        assert code == 2
        assert err_lines(capsys.readouterr().err) == [
            "error: numerical divergence: growth-rate fit of mode 1.0 failed: log|u_k| "
            f"departs from its line by {misfit} > 1e-05 (the seed eps0=1 is not linear)"]
        assert not list(tmp_path.glob("*.csv"))

    def test_nonlinear_dispersion_seed_exits_two(self, tmp_path, capsys):
        self.nonlinear_dispersion_seed(tmp_path, capsys, ["--dt", "0.02"], "0.227")

    def test_nonlinear_dispersion_seed_exits_two_at_the_default_step(self, tmp_path, capsys):
        self.nonlinear_dispersion_seed(tmp_path, capsys, [], "0.222")   # T/50 = 0.1

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
        (["compare", "--r", "0.1", "--dt-model", "0"], "dt-model must be positive, got 0.0"),
        (["compare", "--r", "0.1", "--n-samples", "0"], "n-samples must be at least 1"),
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
        # an infinite span is rejected by the step rule, not by math.ceil
        (["simulate-model", "--t-end", "inf"], "be finite, got a span of inf"),
        (["dispersion", "--k-steps", "2", "--t-fit", "inf"], "be finite, got a span of inf"),
        (["simulate-direct", "--scheme", "bounded-imex", "--t-end", "inf"],
         "be finite, got a span of inf"),
        # the default horizon -10/fast needs fast = r - 8 g^2/h^2 < 0
        (["boundary-select", "--gamma", "0", "--r", "0"],
         "needs a decaying wall mode, got fast rate r - 8 g^2/h^2 = 0.0"),
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

    def test_fast_forcing_warning_reports_peak_acceleration(self, tmp_path, capsys):
        # at omega = 40 pi, 201 samples over [0, 10] all land on a peak of
        # alpha(t), so a sampled second difference would read zero
        code = main(["simulate-model", "--kind", "even", "--alpha", "0.1",
                     "--alpha-omega", "125.66370614359172", "--t-end", "10",
                     "--n-elements", "4", "--output-dir", str(tmp_path)])
        assert code == 0
        assert err_lines(capsys.readouterr().err) == [
            "warning: alpha(t) acceleration 1.58e+03 exceeds 1; "
            "the model assumes slowly varying forcing"]

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


class TestForcingKind:
    @pytest.mark.parametrize("args, message", [
        (["simulate-model", "--kind", "periodic", "--alpha", "0.5", "--alpha-omega", "5",
          "--t-end", "1"], "a periodic domain has no walls"),
        (["simulate-model", "--beta", "0.1", "--t-end", "1"], "a periodic domain has no walls"),
        (["simulate-direct", "--alpha", "0.1", "--t-end", "1"], "a periodic domain has no walls"),
        (["simulate-direct", "--scheme", "bounded-imex", "--kind", "periodic", "--t-end", "1"],
         "bounded stepping rejects periodic forcing"),
        (["simulate-direct", "--scheme", "spectral-etd", "--kind", "odd", "--alpha", "0.5",
          "--alpha-omega", "5"], "the spectral-etd scheme runs a periodic domain, got kind 'odd'"),
        (["simulate-direct", "--kind", "even", "--t-end", "1"],
         "the spectral-etd scheme runs a periodic domain, got kind 'even'"),
        (["simulate-model", "--kind", "wavy", "--alpha", "0.1", "--alpha-omega", "25"],
         "kind must be one of periodic, even, odd, got 'wavy'"),
    ])
    def test_signals_a_kind_cannot_carry_exit_one(self, tmp_path, capsys, args, message):
        # one error line, before any warning, and no output
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--output-dir", str(tmp_path)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        (line,) = err_lines(capsys.readouterr().err)
        assert line.startswith("error: ") and message in line
        assert not list(tmp_path.glob("*.csv"))


class TestRejectedInput:
    """Bad input exits 1 with one error line, before any warning, and
    writes nothing."""

    @staticmethod
    def rejected(args, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--output-dir", str(tmp_path)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        (line,) = err_lines(capsys.readouterr().err)
        assert line.startswith("error: ")
        assert not tmp_path.exists() or not list(tmp_path.iterdir())
        return line

    @pytest.mark.parametrize("args, message", [
        (["simulate-model", "--r", "nan", "--t-end", "1"], "r must be finite, got nan"),
        (["dispersion", "--r", "inf", "--k-steps", "1"], "r must be finite, got inf"),
        (["boundary-select", "--r", "inf", "--n-elements", "2", "--t-end", "1"],
         "r must be finite, got inf"),
        (["simulate-model", "--kind", "even", "--alpha", "nan", "--t-end", "1"],
         "wall signals must be finite, got nan"),
        (["boundary-equilibrium", "--alpha", "inf", "--t-end", "1"],
         "wall signals must be finite, got inf"),
        (["simulate-direct", "--scheme", "bounded-imex", "--beta", "inf", "--t-end", "0.1",
          "--n-elements", "2", "--m-samples", "16"], "wall signals must be finite, got inf"),
        (["simulate-model", "--kind", "even", "--alpha", "0.01", "--alpha-omega", "nan",
          "--t-end", "1"], "alpha-omega must be finite, got nan"),
        # requests for no rows
        (["dispersion", "--k-steps", "0"], "k-steps must be at least 1, got 0"),
        (["boundary-profiles", "--profile-samples", "0"],
         "profile-samples must be at least 1, got 0"),
        (["simulate-direct", "--scheme", "crank", "--t-end", "1"],
         "scheme must be one of spectral-etd, bounded-imex, got 'crank'"),
        # a NaN threshold never warned, whatever the acceleration (62.5 here)
        (["simulate-model", "--kind", "even", "--alpha", "0.1", "--alpha-omega", "25",
          "--accel-warn", "nan", "--t-end", "1", "--n-elements", "4"],
         "accel-warn must be a non-negative number, got nan"),
        (["simulate-direct", "--scheme", "bounded-imex", "--accel-warn", "-1", "--t-end", "0.1",
          "--n-elements", "2", "--m-samples", "16"],
         "accel-warn must be a non-negative number, got -1.0"),
        (["dispersion", "--k-min", "nan", "--k-max", "1", "--k-steps", "1"],
         "k-min must be finite, got nan"),
        (["dispersion", "--k-max", "inf", "--k-steps", "2"], "k-max must be finite, got inf"),
        # step budgets, rejected before any step is taken or allocated
        (["simulate-direct", "--t-end", "1e9", "--n-elements", "2", "--m-samples", "16"],
         "a span of 1e+09 at dt=0.05 needs 2e+10 steps, more than the budget of 10,000,000"),
        (["simulate-model", "--t-end", "1e12", "--n-elements", "2"], "needs 2e+13 steps"),
        (["boundary-equilibrium", "--t-end", "1e12"], "needs 2e+13 steps"),
        # each message names its key and what the key takes
        (["dispersion", "--k-steps", "x"], "k-steps must be a whole number, got 'x'"),
        (["simulate-model", "--r", "x"], "r must be a number, got 'x'"),
        (["boundary-select", "--sign", "x"], "sign must be one of upper, lower, got 'x'"),
        (["boundary-profiles", "--sign", "x"], "sign must be one of upper, lower, got 'x'"),
        # ranges, checked before any work, so no numpy overflow warning prints
        (["compare", "--r", "1e300"], "r must be at most 10, got 1e+300"),
        (["compare", "--r-ladder", "0.04,-20"], "r-ladder must be at least -10, got -20.0"),
        (["compare", "--r", "0.1", "--modulation", "inf"], "modulation must be finite, got inf"),
        (["boundary-select", "--phase-deg", "400"], "phase-deg must be at most 360, got 400.0"),
        (["dispersion", "--k-min", "0.01", "--k-steps", "1"],
         "k-min must be at least 0.015625, got 0.01"),
        (["dispersion", "--k-max", "171"], "k-max must be at most 170, got 171.0"),
        # a seed is a whole number from 0, whether the experiment draws from it or not
        (["simulate-model", "--seed", "-1"], "seed must be at least 0, got -1"),
        (["simulate-direct", "--seed", "-1"], "seed must be at least 0, got -1"),
        (["boundary-profiles", "--seed", "-1"], "seed must be at least 0, got -1"),
        # both compare steps are finite and positive
        (["compare", "--r", "0.1", "--dt-oracle", "-1"], "dt-oracle must be positive, got -1.0"),
        (["compare", "--r", "0.1", "--dt-oracle", "inf"], "dt-oracle must be finite, got inf"),
        (["compare", "--r", "0.1", "--dt-model", "nan"], "dt-model must be finite, got nan"),
    ])
    def test_bad_input_exits_one(self, tmp_path, capsys, args, message):
        assert message in self.rejected(args, tmp_path, capsys)

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 146. TiB for an array with shape "
                     "(20000000000001,) and data type float64"),
         "error: out of memory: Unable to allocate 146. TiB for an array with shape "
         "(20000000000001,) and data type float64"),
        (MemoryError(), "error: out of memory: an allocation failed"),
    ])
    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch, exc, message):
        # a runner that raises, as a run too large to allocate does
        def runner(cfg, params):
            raise exc

        monkeypatch.setitem(RUNNERS, "simulate-model", runner)
        assert self.rejected(["simulate-model", "--t-end", "1"], tmp_path, capsys) == message

    def test_forced_bounded_run_takes_the_oracles_step(self, tmp_path, capsys):
        # no --dt: the warning's step check accepts the oracle's own step,
        # and still rejects a bad t-end before the warning prints
        args = ["simulate-direct", "--scheme", "bounded-imex", "--alpha", "0.05",
                "--alpha-omega", "3", "--accel-warn", "0.1"]
        assert main(args + ["--t-end", "2", "--output-dir", str(tmp_path / "run")]) == 0
        assert "slowly varying" in capsys.readouterr().err
        line = self.rejected(args + ["--t-end", "0"], tmp_path / "none", capsys)
        assert "t_end must exceed the start time" in line


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
