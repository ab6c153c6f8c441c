from __future__ import annotations

import json

import pytest

from poisson_malliavin.cli import main
from poisson_malliavin.suite import default_config


@pytest.fixture()
def tiny_config(tmp_path):
    """Small, fast config: a thin slice of the default grid."""
    cfg = default_config()
    keep = ("mecke", "duality", "product_formula", "non_diffusion_control")
    cfg["cases"] = [c for c in cfg["cases"] if c["identity"] in keep][:6]
    cfg["mc"] = {"seed": 11, "samples": 2000, "workers": 2}
    cfg["pointwise_samples"] = 50
    cfg["randomized_space"] = None
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestVerify:
    def test_runs_and_writes_report(self, tiny_config, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["verify", "--config", tiny_config, "--backend", "both", "--report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        rows = json.loads(report.read_text())
        assert rows and all(row["pass"] for row in rows)
        for row in rows:
            assert set(row) >= {"case", "lhs", "rhs", "defect", "gate", "pass", "seed", "n"}
            assert "wall_time" not in row

    def test_report_bytes_deterministic(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--config", tiny_config, "--report", str(a)]) == 0
        assert main(["verify", "--config", tiny_config, "--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_backend_flag_exact_only(self, tiny_config, capsys):
        assert main(["verify", "--config", tiny_config, "--backend", "exact"]) == 0
        out = capsys.readouterr().out
        assert "@mc#" not in out

    def test_cli_overrides_samples_and_seed(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--config", tiny_config, "--backend", "mc", "--samples", "500"]
        assert main(argv + ["--seed", "1", "--report", str(a)]) == 0
        assert main(argv + ["--seed", "2", "--report", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_negative_weight_rejected(self, tmp_path, capsys):
        cfg = default_config()
        cfg["space"] = {"weights": [0.5, -1.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == 2
        assert "space.weights" in capsys.readouterr().err

    def test_unknown_identity_rejected_with_index(self, tmp_path, capsys):
        cfg = default_config()
        cfg["cases"] = [{"identity": "nope"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == 2
        assert "cases[0]" in capsys.readouterr().err

    def test_dump_config(self, capsys):
        assert main(["verify", "--dump-config"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["space"]["weights"] == [0.5, 1.0, 1.5]

    def test_dump_config_applies_mc_overrides(self, tiny_config, capsys):
        argv = ["verify", "--dump-config", "--seed", "7", "--samples", "1000"]
        for config, workers in (([], 1), (["--config", tiny_config], 2)):
            assert main(argv + config) == 0
            out = capsys.readouterr().out
            assert '"seed": 7' in out and '"samples": 1000' in out
            assert json.loads(out)["mc"] == {"seed": 7, "samples": 1000, "workers": workers}


BAD_OVERRIDES = [
    (["verify", "--backend", "mc", "--samples", "1"], "samples must be an integer >= 2, got 1"),
    (["verify", "--samples", "0"], "samples must be an integer >= 2, got 0"),
    (["verify", "--seed", "-3"], "seed must be an integer >= 0, got -3"),
    (["verify", "--workers", "0"], "workers must be an integer >= 1, got 0"),
    (["estimate", "--functional", "linear_count", "--samples", "1"], "samples must be an integer >= 2, got 1"),
    (["sample", "--count", "-1"], "--count must be an integer >= 0, got -1"),
    (["sample", "--count", "3", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
]


@pytest.mark.parametrize("argv, message", BAD_OVERRIDES, ids=[" ".join(a) for a, _ in BAD_OVERRIDES])
def test_bad_override_exits_2_with_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


class TestSample:
    def test_emits_json_lines(self, capsys):
        assert main(["sample", "--count", "5", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            obj = json.loads(line)
            assert len(obj["counts"]) == 3
            assert all(isinstance(k, int) and k >= 0 for k in obj["counts"])

    def test_seed_determinism(self, capsys):
        main(["sample", "--count", "4", "--seed", "9"])
        first = capsys.readouterr().out
        main(["sample", "--count", "4", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestEstimate:
    def test_linear_count_mean(self, capsys):
        code = main(
            [
                "estimate",
                "--functional", "linear_count",
                "--params", '{"B": [1, 2, 3]}',
                "--samples", "20000",
                "--seed", "5",
            ]
        )
        assert code == 0
        est = json.loads(capsys.readouterr().out)
        assert abs(est["mean"] - 3.0) <= 4.0 * est["std_error"]
        assert est["n"] == 20000

    def test_bad_params_json(self, capsys):
        assert main(["estimate", "--functional", "linear_count", "--params", "{"]) == 2
        assert "params" in capsys.readouterr().err

    def test_unknown_functional(self, capsys):
        assert main(["estimate", "--functional", "nope", "--params", "{}"]) == 2
