"""Self-validation suites and the command-line interface."""

import time
from pathlib import Path

import pytest
import yaml

import hierbandit.agents
import hierbandit.gaussian
from hierbandit.cli import main
from hierbandit.suites import SUITES, run_suite, run_suites


def test_fast_suites_pass():
    results = run_suites(["posterior", "conjugacy", "regret"])
    for name, checks in results.items():
        for check in checks:
            assert check.passed, "%s/%s: %s" % (name, check.name, check.detail)


def test_mcmc_suite_passes_within_budget():
    t0 = time.time()
    checks = run_suite("mcmc")
    elapsed = time.time() - t0
    for check in checks:
        assert check.passed, "mcmc/%s: %s" % (check.name, check.detail)
    assert elapsed < 120.0


def _pick_worst_arm(monkeypatch):
    """Break every agent's numpy pick rule: argmin in place of argmax."""
    monkeypatch.setattr(hierbandit.agents, "_pick",
                        lambda scores: scores.argmin(axis=-1))


def _failed(suite):
    return [c.name for c in run_suite(suite) if not c.passed]


def test_sign_flip_fault_fails_path_equivalence(monkeypatch):
    # Break the blocked route: task_cross_terms returns -M V^{-1} resid.
    workspace = hierbandit.gaussian.KernelWorkspace
    cross_terms = workspace.task_cross_terms

    def flipped(self, target_task):
        m_vinv_phi, m_vinv_resid, m_vinv_m = cross_terms(self, target_task)
        return m_vinv_phi, -m_vinv_resid, m_vinv_m

    monkeypatch.setattr(workspace, "task_cross_terms", flipped)
    assert _failed("posterior") == ["path-equivalence"]


def test_score_offset_fault_fails_regret_suite(monkeypatch):
    _pick_worst_arm(monkeypatch)
    assert _failed("regret") == ["oracle-beats-blind-play"]


def test_suite_registry():
    assert SUITES == ("posterior", "conjugacy", "mcmc", "regret")
    from hierbandit.errors import ConfigError
    with pytest.raises(ConfigError):
        run_suite("frequentist")


def _write_config(path, **overrides):
    raw = {
        "population": {"n_tasks": 3, "horizon": 4, "n_arms": 2, "dim": 2},
        "schedule": "concurrent",
        "algorithms": ["hier-ts"],
        "seeds": 2,
    }
    raw.update(overrides)
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_cli_version():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_cli_usage_errors(capsys):
    assert main([]) == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1
    capsys.readouterr()


def test_cli_run_writes_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.yaml")
    out = tmp_path / "results"
    assert main(["run", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    for name in ("ledger.csv", "curves.csv", "summary.csv", "manifest.json"):
        assert (out / name).exists()
        assert name in captured.out


def test_cli_run_bad_inputs(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1
    cfg = _write_config(tmp_path / "bad.yaml", horizon=4)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("case", ["yaml-syntax", "directory"])
@pytest.mark.parametrize("command", ["run", "export-population"])
def test_cli_malformed_config_is_one_error_line(tmp_path, capsys, command,
                                                case):
    if case == "yaml-syntax":
        path = tmp_path / "broken.yaml"
        path.write_text("population: {n_tasks: 3\nschedule: [sequential\n")
    else:
        path = tmp_path / "a_directory"
        path.mkdir()
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hierbandit: error: ")
    assert str(path) in lines[0]
    assert "Traceback" not in captured.err + captured.out


def test_cli_run_refuses_an_infinite_population_parameter(tmp_path, capsys):
    population = {"n_tasks": 3, "horizon": 4, "n_arms": 2, "dim": 2,
                  "reward_kind": "bernoulli", "psi": float("inf")}
    cfg = _write_config(tmp_path / "exp.yaml", population=population)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hierbandit: error: ")
    assert "psi" in lines[0]
    assert "Traceback" not in captured.err + captured.out


def test_cli_run_respects_env_output(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path / "exp.yaml")
    target = tmp_path / "from_env"
    monkeypatch.setenv("HIERBANDIT_OUT", str(target))
    assert main(["run", cfg]) == 0
    assert (target / "ledger.csv").exists()
    capsys.readouterr()


def test_cli_validate_reports_and_exit_codes(capsys, monkeypatch):
    assert main(["validate", "--suite", "conjugacy"]) == 0
    out = capsys.readouterr().out
    assert "conjugacy/" in out
    assert "checks passed" in out
    _pick_worst_arm(monkeypatch)
    assert main(["validate", "--suite", "regret"]) == 3
    out = capsys.readouterr().out
    assert "oracle-beats-blind-play: FAIL" in out


def test_cli_export_population(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.yaml")
    out = tmp_path / "population.csv"
    assert main(["export-population", cfg, "--out", str(out)]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[2].startswith("task_id")
    assert len(lines) == 3 + 3  # three header rows, one row per task
    capsys.readouterr()
