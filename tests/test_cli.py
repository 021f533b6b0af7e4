import json
import os

import numpy as np
import pytest

from adaptive_stab.cli import main

PWA_CFG = {
    "system": {"name": "pwa",
               "params": {"x_bar": 3000.0, "u_bar1": 0.9, "u_bar2": 0.1,
                          "w_bar": 0.07}},
    "gamma": 0.0001, "x0": 0.5, "horizon": 200, "n_trials": 4,
    "base_seed": 11, "deltas": [0.1],
}

LINEAR_CFG = {
    "system": {"name": "linear",
               "params": {"a": [[1.0, 1.0], [0.0, 1.0]], "b": [[0.0], [1.0]],
                          "sigma_w_scalar": 0.05, "kappa": 2,
                          "u_max": 1.0, "u_bar1": 0.9}},
    "gamma": 0.0001, "x0": [0.5, 0.0], "horizon": 150, "n_trials": 3,
    "base_seed": 11, "deltas": [0.1],
}


@pytest.fixture
def pwa_config(tmp_path):
    path = tmp_path / "pwa.json"
    path.write_text(json.dumps(PWA_CFG))
    return str(path)


@pytest.fixture
def linear_config(tmp_path):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(LINEAR_CFG))
    return str(path)


class TestSimulate:
    def test_runs_and_writes_artifacts(self, pwa_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", pwa_config, "--out", str(out), "--svg"])
        assert rc == 0
        assert (out / "ensemble.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "ensemble.svg").exists()
        header = (out / "ensemble.csv").read_text().splitlines()[0]
        assert header == ("t,median_absx,q90_absx,median_err,q90_err,"
                          "e_bound,x_bar_bound")

    def test_byte_identical_reruns(self, pwa_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", pwa_config, "--trials", "1", "--seed", "7",
                     "--out", str(out1)]) == 0
        assert main(["simulate", pwa_config, "--trials", "1", "--seed", "7",
                     "--out", str(out2)]) == 0
        assert (out1 / "ensemble.csv").read_bytes() == \
            (out2 / "ensemble.csv").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["hashes"][str(out1 / "ensemble.csv")] == \
            m2["hashes"][str(out2 / "ensemble.csv")]

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": }')
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_schema_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"system": {"name": "unknown-plant"}}))
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_env_seed_override(self, pwa_config, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("ADAPTIVE_STAB_SEED", "99")
        assert main(["simulate", pwa_config, "--trials", "1",
                     "--out", str(out1)]) == 0
        monkeypatch.delenv("ADAPTIVE_STAB_SEED")
        assert main(["simulate", pwa_config, "--trials", "1", "--seed", "99",
                     "--out", str(out2)]) == 0
        assert (out1 / "ensemble.csv").read_bytes() == \
            (out2 / "ensemble.csv").read_bytes()

    def test_empty_estimation_event_not_reported(self, pwa_config, tmp_path,
                                                 capsys):
        """No burn-in time below the horizon: the estimation and joint events
        are empty, so their coverage is left out instead of reading 1.000."""
        out = tmp_path / "out"
        assert main(["simulate", pwa_config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["stats"]["coverages"]) == {"rpi_invariance"}
        printed = capsys.readouterr().out
        assert "coverage[estimation_bound], coverage[joint]: not reported" in printed
        assert "coverage[joint] =" not in printed


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("config", ["pwa_config", "linear_config"])
def test_every_json_artifact_is_strict_json(config, tmp_path, request):
    """Every command writes standard JSON: infinities appear as "inf"."""
    path = request.getfixturevalue(config)
    sweep = ["--param", "x_bar", "--values", "100,1000"] if config == "pwa_config" \
        else ["--param", "u_bar1", "--values", "0.8,0.9"]
    commands = {
        "simulate": ["--trials", "2"],
        "certify": ["--samples", "2000"],
        "bounds": ["--cap", "20000", "--horizon", "50"],
        "sweep": sweep + ["--cap", "20000"],
    }
    for command, extra in commands.items():
        out = tmp_path / command
        assert main([command, path, "--out", str(out)] + extra) in (0, 4)
        written = sorted(out.glob("*.json"))
        assert written
        for artifact in written:
            _strict_json(artifact.read_text())


class TestCertify:
    def test_pwa_all_pass(self, pwa_config, tmp_path):
        out = tmp_path / "cert"
        rc = main(["certify", pwa_config, "--samples", "4000",
                   "--out", str(out)])
        assert rc == 0
        for name in ("excitation.json", "rpi.json", "lyapunov.json"):
            assert (out / name).exists()

    def test_forced_radius_falsifies_exit_4(self, pwa_config, tmp_path):
        out = tmp_path / "cert"
        rc = main(["certify", pwa_config, "--what", "rpi",
                   "--vartheta-bar", "1.0", "--samples", "4000",
                   "--out", str(out)])
        assert rc == 4
        cert = json.loads((out / "rpi.json").read_text())
        assert cert["falsified"] is not None

    def test_uncertified_excitation_exit_4(self, pwa_config, tmp_path, monkeypatch):
        """Exact zero noise cannot be expressed in a shipped config (parameter
        validation rejects it), so drive the negative branch by making the
        scan report its not-certified error."""
        import adaptive_stab.cli as cli_mod
        from adaptive_stab.errors import CertificationError

        def degenerate_scan(*args, **kwargs):
            raise CertificationError("excitation not certified: zero moment")

        monkeypatch.setattr(cli_mod, "moment_scan", degenerate_scan)
        rc = main(["certify", pwa_config, "--what", "excitation",
                   "--samples", "2000", "--out", str(tmp_path / "o")])
        assert rc == 4


class TestBounds:
    def test_linear_corollary_route(self, linear_config, tmp_path):
        out = tmp_path / "bounds"
        rc = main(["bounds", linear_config, "--delta", "0.1", "--cap", "50000",
                   "--horizon", "100", "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "bounds.json").read_text())
        assert data["schedule"]["T_contained"] == "inf"
        assert data["condition"]["delta"]["ok"] and data["condition"]["delta/2"]["ok"]
        assert data["envelope"] is not None and "c2" in data["envelope"]
        header = (out / "schedule.csv").read_text().splitlines()[0]
        assert header == "t,w_bar,x_bar,z_bar,beta_max,e,eta"

    def test_pwa_small_region_condition_false(self, tmp_path):
        cfg = json.loads(json.dumps(PWA_CFG))
        cfg["system"]["params"]["x_bar"] = 5.0
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "bounds"
        rc = main(["bounds", str(path), "--delta", "0.1", "--cap", "20000",
                   "--horizon", "50", "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "bounds.json").read_text())
        assert not data["condition"]["delta"]["ok"]
        assert data["schedule"]["T_contained"] != "inf"

    def test_delta_zero_exit_2(self, pwa_config, tmp_path):
        rc = main(["bounds", pwa_config, "--delta", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_schedule_csv_byte_identical_reruns(self, linear_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["bounds", linear_config, "--delta", "0.1", "--cap", "20000",
                "--horizon", "60"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "schedule.csv").read_bytes() == \
            (out2 / "schedule.csv").read_bytes()


class TestSweep:
    def test_x_bar_sweep_monotone(self, pwa_config, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", pwa_config, "--param", "x_bar",
                   "--values", "10,100,1000", "--cap", "20000",
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("x_bar,")
        conts = [float(r.split(",")[2]) for r in rows[1:]]
        assert conts == sorted(conts)

    def test_empty_values_exit_2(self, pwa_config, tmp_path):
        rc = main(["sweep", pwa_config, "--param", "x_bar", "--values", "",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_param_exit_2(self, pwa_config, tmp_path):
        rc = main(["sweep", pwa_config, "--param", "bogus", "--values", "1,2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_gamma_sweep_error_at_t1_constant(self, tmp_path):
        """At t = 1 and sigma_w = 0 the regulariser cancels: e(1) = |theta*|_F
        independent of gamma."""
        from adaptive_stab.bounds import error_envelope
        from adaptive_stab.configio import build_bundle
        cfg = json.loads(json.dumps(PWA_CFG))
        vals = []
        for gamma in (1e-4, 1e-2, 1.0):
            cfg["gamma"] = gamma
            bundle = build_bundle(cfg)
            inputs = bundle.bound_inputs()
            from dataclasses import replace
            inputs = replace(inputs, sigma_w=0.0)
            vals.append(error_envelope(1, 0.1, bundle.x0, inputs))
        assert np.allclose(vals, vals[0])
        assert vals[0] == pytest.approx(np.sqrt(1.0 + 0.01))  # |theta*|_F


SEARCHES = ("burn_in_time", "certified_burn_in_upper", "certified_converge_upper")


@pytest.fixture
def search_calls(monkeypatch):
    """(inputs, delta) of every call to the burn-in and certified searches."""
    import adaptive_stab.bounds as bnd
    calls = {name: [] for name in SEARCHES}
    for name, log in calls.items():
        def counted(inputs, delta, *args, _orig=getattr(bnd, name), _log=log, **kwargs):
            _log.append((inputs, delta))   # holding inputs keeps each id unique
            return _orig(inputs, delta, *args, **kwargs)
        monkeypatch.setattr(bnd, name, counted)
    return calls


def test_each_search_runs_once_per_delta(search_calls, tmp_path):
    """bounds and sweep build one bound analysis per bundle: the burn-in
    search and the two certified searches run at most once per delta."""
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    pwa, linear = (os.path.join(configs, f"{name}.json") for name in ("pwa", "linear"))
    assert main(["bounds", pwa, "--out", str(tmp_path / "pwa")]) == 0
    assert main(["bounds", linear, "--out", str(tmp_path / "linear")]) == 0
    assert main(["sweep", pwa, "--param", "x_bar", "--values", "300,1000,3000",
                 "--out", str(tmp_path / "sweep")]) == 0
    for name, log in search_calls.items():
        keys = [(id(inputs), delta) for inputs, delta in log]
        assert len(keys) == len(set(keys)), name
    # five bundles (two bounds commands, three sweep values), two deltas each
    assert len(search_calls["burn_in_time"]) == 10


def test_simulate_runs_no_certified_search(search_calls, pwa_config, tmp_path):
    assert main(["simulate", pwa_config, "--trials", "1",
                 "--out", str(tmp_path / "sim")]) == 0
    assert len(search_calls["burn_in_time"]) == 1
    assert not search_calls["certified_burn_in_upper"]
    assert not search_calls["certified_converge_upper"]
