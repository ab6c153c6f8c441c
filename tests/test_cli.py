from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from poisson_malliavin import montecarlo
from poisson_malliavin.cli import _build_parser, main
from poisson_malliavin.suite import _random_space, default_config, load_config


@pytest.fixture()
def tiny_config(tmp_path):
    """Small, fast config: a thin slice of the default grid."""
    cfg = default_config()
    keep = ("mecke", "duality", "product_formula", "non_diffusion_control")
    cfg["cases"] = [c for c in cfg["cases"] if c["identity"] in keep][:6]
    cfg["mc"] = {"seed": 11, "samples": 2000}
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
        for config in ([], ["--config", tiny_config]):
            assert main(argv + config) == 0
            out = capsys.readouterr().out
            assert '"seed": 7' in out and '"samples": 1000' in out
            assert json.loads(out)["mc"] == {"seed": 7, "samples": 1000}


BAD_OVERRIDES = [
    (["verify", "--backend", "mc", "--samples", "1"], "samples must be an integer >= 2, got 1"),
    (["verify", "--samples", "0"], "samples must be an integer >= 2, got 0"),
    (["verify", "--seed", "-3"], "seed must be an integer >= 0, got -3"),
    (["estimate", "--functional", "linear_count", "--samples", "1"], "samples must be an integer >= 2, got 1"),
    (["sample", "--count", "-1"], "--count must be an integer >= 0, got -1"),
    (["sample", "--count", "3", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (
        ["estimate", "--functional", "poly_count", "--params", '{"B": [1], "degree": 2, "scale": 3}'],
        "functional spec 'poly_count': unknown keys ['scale']; known: ['name', 'B', 'degree']",
    ),
]


@pytest.mark.parametrize("argv, message", BAD_OVERRIDES, ids=[" ".join(a) for a, _ in BAD_OVERRIDES])
def test_bad_override_exits_2_with_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [["verify"], ["estimate", "--functional", "linear_count"]])
def test_workers_flag_is_gone(command, capsys):
    """The sampler draws one stream, so there is no worker count to set."""
    with pytest.raises(SystemExit) as err:
        main(command + ["--workers", "4"])
    assert err.value.code == 2
    assert "unrecognized arguments: --workers 4" in capsys.readouterr().err


def test_weight_past_the_sampler_limit(tmp_path, capsys):
    """``sample`` and ``estimate`` exit 2 on a weight numpy's Poisson
    sampler refuses, and ``verify`` reports each check it fails as a FAIL
    row carrying the error."""
    cfg = {
        "space": {"weights": [0.5, 1e19]},
        "cases": [
            {"identity": "mecke", "u": {"name": "site_indicator", "B": [1]}},
            {"identity": "commutation", "u": {"name": "site_indicator", "B": [1]}},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    message = "weight 1e+19 is above 9.223372006484771e+18, the largest the Poisson sampler draws"
    for argv in (
        ["sample", "--count", "2"],
        ["estimate", "--functional", "linear_count", "--params", '{"B": [1]}'],
    ):
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    report = tmp_path / "report.json"
    argv = ["verify", "--backend", "mc", "--config", str(path), "--report", str(report)]
    assert main(argv) == 1
    rows = json.loads(report.read_text())
    assert [row["pass"] for row in rows] == [False, False]
    assert all(row["error"] == f"ConfigError: {message}" for row in rows)


def test_random_weights_rounded_to_zero_name_their_key(tmp_path, capsys):
    """Random-space weights keep 6 decimals, so a ``low`` far below 1e-6
    draws a weight of 0.0: ``verify`` exits 2 naming ``randomized_space``
    and the rounding, not a ``weights[0]`` the config never wrote.  The
    suggested ``low`` draws weights that survive the rounding."""
    cfg = default_config()
    cfg["randomized_space"] = {"sites": 2, "low": 1e-9, "high": 1e-8}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: randomized_space: low 1e-09 draws a weight that rounds to 0.0"
        " at the 6 decimals random weights keep; use low >= 1e-06\n"
    )
    cfg["randomized_space"] = {"sites": 2, "low": 1e-6, "high": 1e-5}
    path.write_text(json.dumps(cfg))
    assert min(_random_space(load_config(str(path))).weights) >= 1e-6


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

    def test_prints_the_first_draws_of_verify(self, tmp_path, monkeypatch, capsys):
        """``sample --seed S --count N`` prints the first N configurations
        that ``verify --backend mc --seed S`` draws; weights 0.5, 8 and 30
        reach numpy's inversion and rejection Poisson samplers."""
        cfg = default_config()
        cfg["space"] = {"weights": [0.5, 8.0, 30.0]}
        unit = {"name": "deterministic", "values": [1.0, 1.0, 1.0]}
        cfg["cases"] = [{"identity": "mecke", "u": unit}]
        cfg["randomized_space"] = None
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        drawn = []
        real = montecarlo.sample_counts

        def recording(*args):
            drawn.append(real(*args))
            return drawn[-1]

        monkeypatch.setattr(montecarlo, "sample_counts", recording)
        argv = ["--config", str(path), "--seed", "9"]
        assert main(["verify", "--backend", "mc", "--samples", "200"] + argv) == 0
        capsys.readouterr()
        assert main(["sample", "--count", "50"] + argv) == 0
        printed = [json.loads(line)["counts"] for line in capsys.readouterr().out.splitlines()]
        verify_draw, sample_draw = drawn
        assert verify_draw.shape == (200, 3)
        assert printed == sample_draw.tolist() == verify_draw[:50].tolist()

    def test_streams_its_rows_in_blocks(self, monkeypatch, capsys):
        """``sample`` never holds the whole (count, n) draw: it prints one
        stream block by block, the rows of a one-shot draw."""
        sizes = []
        real = montecarlo.sample_counts

        def recording(space, rng, m):
            sizes.append(m)
            return real(space, rng, m)

        monkeypatch.setattr(montecarlo, "sample_counts", recording)
        assert main(["sample", "--count", "10000", "--seed", "3"]) == 0
        printed = [json.loads(line)["counts"] for line in capsys.readouterr().out.splitlines()]
        assert len(sizes) > 1 and max(sizes) < 10_000 and sum(sizes) == 10_000
        whole = montecarlo.draw(load_config(None).space, 3, 10_000)
        assert printed == whole.tolist()


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

    def test_name_in_params_refused(self, capsys):
        """A ``name`` in --params would silently replace --functional."""
        params = '{"name": "constant", "value": 3.0}'
        argv = ["estimate", "--functional", "linear_count", "--params", params]
        assert main(argv + ["--samples", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--params must not hold 'name'" in captured.err


def test_readme_library_example_prints_its_commented_values():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(readme), "exec"), {})
    # "print(x)  # 1.5 = nu(B)": the numbers before any "=" are the values
    expected = [
        line.split("#", 1)[1].split("=")[0].split()
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(expected) == 5
    for got, want in zip(printed, expected):
        assert [float(g) for g in got] == pytest.approx([float(w) for w in want], rel=1e-6, abs=0)


def test_readme_cli_lines_parse():
    """Every ``poisson-malliavin`` command in the README's CLI block is
    accepted by the parser."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", readme.read_text(), re.S)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("poisson-malliavin ")
    ]
    assert len(commands) == 6
    for tokens in commands:
        argv = tokens[1 : tokens.index(">")] if ">" in tokens else tokens[1:]
        _build_parser().parse_args(argv)


def _limited(argv: list[str]) -> subprocess.CompletedProcess:
    """``main(argv)`` in a child process whose address space is capped at
    3 GiB, so an allocation sized by an input fails there, not on the host."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys\nfrom poisson_malliavin.cli import main\nsys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, preexec_fn=cap,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "edit, argv, message",
    [
        (
            {"pointwise_samples": 10**10},
            ["verify", "--backend", "exact"],
            "error: pointwise_samples: 10000000000 x 3 int64 values need 240000000000 bytes",
        ),
        # 6 sites at weight 8 take the sorted path: on the dense path 1e10
        # samples cost time, not memory
        (
            {"space": {"weights": [8.0] * 6}},
            ["verify", "--backend", "mc", "--samples", "10000000000"],
            "error: samples: 10000000000 x 7 int64 values need 560000000000 bytes",
        ),
        (
            {"space": {"weights": [8.0] * 6}},
            ["estimate", "--functional", "linear_count", "--params", '{"B": [1]}',
             "--samples", "10000000000"],
            "error: samples: 10000000000 x 7 int64 values need 560000000000 bytes",
        ),
    ],
    ids=["pointwise_samples", "verify-samples", "estimate-samples"],
)
def test_input_sized_draws_are_priced(tmp_path, edit, argv, message):
    """A size-like input at 1e10 exits 2 with a one-line error naming the
    input and its price, before anything is allocated: no traceback."""
    cfg = default_config()
    n = len(edit.get("space", cfg["space"])["weights"])
    unit = {"name": "deterministic", "values": [1.0] * n}
    cfg["cases"] = [{"identity": "mecke", "u": unit}, {"identity": "commutation", "u": unit}]
    cfg["randomized_space"] = None
    cfg.update(edit)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    proc = _limited([*argv[:1], "--config", str(path), *argv[1:]])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr
