"""Return-code and output contract of the console entry point."""

import json

import pytest

from pmbm import cli, harness
from pmbm.cli import main
from pmbm.errors import NumericalError, SizeLimitError


def test_counts_single_value(capsys):
    assert main(["counts", "-n", "4", "-m", "3", "--clutter", "arbitrary"]) == 0
    assert capsys.readouterr().out.strip() == "152"


def test_counts_requires_table_or_pair(capsys):
    assert main(["counts", "-n", "4"]) == 2
    assert "provide --table" in capsys.readouterr().err


def test_kld_prints_divergence(capsys):
    assert main(["kld", "--mean", "10", "--dispersion", "20"]) == 0
    assert capsys.readouterr().out.strip() == "1.12915758816"


def test_unknown_filter_exits_two(tmp_path, capsys):
    rc = main(["simulate", "--filters", "warp-drive", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown filter: warp-drive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "filters, message", [("pmb,pmb", "filter name listed twice: pmb"), (",", "no filter names given")]
)
def test_repeated_or_missing_filter_exits_one(tmp_path, capsys, filters, message):
    rc = main(["simulate", "--runs", "1", "--filters", filters, "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_config_reports_cleanly(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_scenario_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("stepz: 5\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "stepz" in capsys.readouterr().err


def test_wrongly_typed_scenario_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "typed.yaml"
    cfg.write_text("steps: 10.5\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--filters", "pmb"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_degenerate_noise_exits_one(tmp_path, capsys):
    cfg = tmp_path / "zero-noise.yaml"
    cfg.write_text("meas_noise: 0.0\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--filters", "pmb"])
    assert rc == 1
    assert capsys.readouterr().err == "error: meas_noise must be > 0\n"


def test_non_finite_scenario_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "nan-gate.yaml"
    cfg.write_text("gate: .nan\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--filters", "pmb"])
    assert rc == 1
    assert capsys.readouterr().err == "error: gate must be finite\n"


def test_negative_estimator_threshold_exits_one(tmp_path, capsys):
    cfg = tmp_path / "negative-threshold.yaml"
    cfg.write_text("estimator: existence-threshold\nestimator_threshold: -0.5\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--filters", "a-pmbm"])
    assert rc == 1
    assert capsys.readouterr().err == "error: estimator_threshold must be a probability\n"


@pytest.mark.parametrize("mean, dispersion, name", [("nan", "2", "mean"), ("10", "inf", "dispersion")])
def test_non_finite_kld_input_exits_one(capsys, mean, dispersion, name):
    assert main(["kld", "--mean", mean, "--dispersion", dispersion]) == 1
    assert capsys.readouterr().err.startswith(f"error: clutter {name} must be finite")


def test_negative_seed_exits_one(tmp_path, capsys):
    rc = main(["simulate", "--seed", "-1", "--runs", "1", "--filters", "pmb", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    cfg = tmp_path / "negative-seed.yaml"
    cfg.write_text("seed: -1\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--filters", "pmb"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("check", ["update", "gibbs", "composite"])
def test_negative_oracle_seed_exits_one(capsys, check):
    assert main(["oracle", "--check", check, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_bad_subcommand_raises_system_exit():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("error", [NumericalError, SizeLimitError])
def test_package_error_in_simulate_exits_one(monkeypatch, tmp_path, capsys, error):
    def fails(*args, **kwargs):
        raise error("no good")

    monkeypatch.setattr(cli, "experiment", fails)
    assert main(["simulate", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: no good\n"


@pytest.mark.parametrize("check", ["update", "gibbs", "composite"])
def test_failing_oracle_exits_one(monkeypatch, capsys, check):
    # CI fails the build on an oracle only through this exit code.
    seeds = []

    def fails(seed):
        seeds.append(seed)
        return False, "report"

    monkeypatch.setattr(cli, f"check_{check}", fails)
    assert main(["oracle", "--check", check, "--seed", "3"]) == 1
    assert seeds == [3]
    assert capsys.readouterr().out == "report\n"


def test_filter_whose_every_run_failed_is_summarized(monkeypatch, tmp_path, capsys):
    # The summary listed only filters with a good run, so printing it raised
    # KeyError and summary.json lost the failed runs.
    real_update = harness.update

    def update(d, scan, model, clutter, cfg, seed=0):
        if cfg.mode == "pmb":
            raise NumericalError("pmb broke")
        return real_update(d, scan, model, clutter, cfg, seed=seed)

    monkeypatch.setattr(harness, "update", update)
    config = tmp_path / "tiny.yaml"
    config.write_text("steps: 2\nruns: 2\nmax_global_hyps: 20\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--filters", "pmbm,pmb", "--out", str(out)]) == 0
    assert "    pmb: all 2 runs failed\n" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["pmb"] == {
        "rms_total": None, "curve": [], "mean_ms_per_step": None, "runs": 0, "failed_runs": 2,
    }
    assert summary["metrics"]["pmbm"]["runs"] == 2
    assert "\npmb," not in (out / "curves.csv").read_text()
