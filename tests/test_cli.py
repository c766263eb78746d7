import json

import numpy as np

from smalltime import cli, tensor_sig


def run(args):
    return cli.main([str(a) for a in args])


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_indices_listing(tmp_path, capsys):
    rc = run(["indices", "--hurst", "2/5", "--set", "L1", "--cutoff", "4",
              "--out", tmp_path / "o"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0,1,2,2.5,3,3.5,4"
    assert (tmp_path / "o" / "indices.csv").read_text().strip() == "0,1,2,2.5,3,3.5,4"
    assert (tmp_path / "o" / "manifest.json").exists()


def test_minimize_energy_value(tmp_path):
    rc = run(["minimize", "--model", "heisenberg", "--target", "1,0.5,0",
              "--hurst", "1/2", "--grid", "64", "--out", tmp_path / "m"])
    assert rc == 0
    payload = _strict_loads((tmp_path / "m" / "minimize.json").read_text())
    assert abs(payload["energy"] - 0.625) <= 1e-4
    assert payload["converged"]


def test_density_prints_oracle(tmp_path, capsys):
    rc = run(["density", "--model", "lognormal", "--t", "0.5", "--method", "shifted",
              "--samples", 20000, "--seed", 7, "--hurst", "2/5", "--grid", "64",
              "--out", tmp_path / "d"])
    assert rc == 0
    payload = _strict_loads((tmp_path / "d" / "density.json").read_text())
    assert "oracle" in payload
    assert payload["rel_err_vs_oracle"] <= 0.05


def test_config_file_merging_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hurst = 2/5\ncutoff = 3\nseed = 11\n")
    out = tmp_path / "o"
    rc = run(["indices", "--config", cfg, "--cutoff", "4", "--out", out])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["hurst"] == "2/5"   # from file
    assert manifest["config"]["cutoff"] == 4.0    # flag wins
    assert manifest["config"]["seed"] == 11


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    rc = run(["indices", "--config", cfg, "--out", tmp_path / "o"])
    assert rc == 2
    assert "no_such_key" in capsys.readouterr().err


def test_invalid_hurst_and_grid_exit_2(tmp_path):
    assert run(["indices", "--hurst", "0.7", "--out", tmp_path / "a"]) == 2
    assert run(["indices", "--grid", "100", "--out", tmp_path / "b"]) == 2


def test_invalid_arguments_exit_2_before_any_work(tmp_path):
    base = ["--model", "lognormal", "--hurst", "2/5", "--grid", "32"]
    cases = {
        "t0": ["density", "--t", "0", "--samples", "100"],
        "t_negative": ["density", "--t", "-0.5", "--samples", "100"],
        "t_above_1": ["density", "--t", "1.5", "--samples", "100"],
        "samples0": ["density", "--t", "0.5", "--samples", "0"],
        "samples10": ["density", "--t", "0.5", "--samples", "10"],
        "grid_t0": ["asymptotics", "--t-grid", "0.4,0.2,0", "--samples", "100"],
        "grid_text": ["asymptotics", "--t-grid", "0.4,x", "--samples", "100"],
        "grid_samples": ["asymptotics", "--samples", "19"],
    }
    for name, argv in cases.items():
        out = tmp_path / name
        assert run(argv + base + ["--out", out]) == 2, name
        assert not out.exists(), name


def test_invalid_library_argument_exits_2(tmp_path, capsys):
    rc = run(["simulate-fbm", "--paths", "0", "--grid", "32", "--out", tmp_path / "p"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_eigen_tail_json_is_strict(tmp_path):
    # one epsilon leaves the mu_hat slope undefined: null, never NaN
    out = tmp_path / "c"
    rc = run(["covariance", "--grid", "32",
              "--tail-eps", "0.25", "--tail-samples", "500", "--out", out])
    assert rc == 0
    assert _strict_loads((out / "eigen_tail.json").read_text())["mu_hat"] is None


def test_numeric_failure_exits_3(tmp_path, capsys):
    rc = run(["minimize", "--model", "bridge1d", "--start", "1.0", "--target", "1.0",
              "--grid", "64", "--out", tmp_path / "n"])
    assert rc == 3


def test_simulate_fbm_csv_shape(tmp_path):
    out = tmp_path / "f"
    rc = run(["simulate-fbm", "--hurst", "0.4", "--grid", "32", "--paths", "5",
              "--dim", "2", "--seed", "1", "--out", out])
    assert rc == 0
    data = np.loadtxt(out / "fbm.csv", delimiter=",")
    assert data.shape == (33, 1 + 5 * 2)
    assert np.allclose(data[0, 1:], 0.0)


def test_user_model_file(tmp_path):
    spec = {
        "name": "user-linear", "n": 1, "d": 1,
        "const": [[0.0]], "lin": [[[0.4]]],
        "a": [1.0], "a_prime": [1.3],
    }
    mf = tmp_path / "model.json"
    mf.write_text(json.dumps(spec))
    out = tmp_path / "h"
    rc = run(["hormander", "--model", "file", "--model-file", mf, "--out", out])
    assert rc == 0
    payload = json.loads((out / "hormander.json").read_text())
    assert payload["ranks_per_depth"][0] == 1


def test_expand_writes_phi_columns(tmp_path):
    out = tmp_path / "e"
    rc = run(["expand", "--model", "lognormal", "--hurst", "2/5", "--grid", "64",
              "--seed", "2", "--out", out])
    assert rc == 0
    header = (out / "expansion.csv").read_text().splitlines()[0]
    assert "phi0_1" in header and "phi1_1" in header and "phi2.5_1" in header


def test_verify_fault_injection(tmp_path, monkeypatch, capsys):
    # corrupting the Chen product breaks the Chen criterion and only it
    real = tensor_sig.chen_mul

    def corrupted(s1, s2):
        out = real(s1, s2)
        bad = out.level2 + 5e-9
        return tensor_sig.TruncatedSignature(out.dim, out.depth, out.level1, bad,
                                             out.level3)

    monkeypatch.setattr(tensor_sig, "chen_mul", corrupted)
    rc = run(["verify", "--suite", "fast", "--out", tmp_path / "v"])
    assert rc == 4
    payload = json.loads((tmp_path / "v" / "verify.json").read_text())
    by_num = {r["number"]: r["passed"] for r in payload["results"]}
    assert by_num[2] is False
    assert by_num[1] is True
    assert by_num[8] is True
