"""Experiment config validation, artifact writing, and reproducibility."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from itertools import repeat
from pathlib import Path
from types import MethodType, SimpleNamespace

import numpy as np
import pytest

from hierbandit import agents, bench, bernoulli, core, errors, svgplot
from hierbandit.agents import (AgentContext, Policy, PooledTS,
                               PooledTSBernoulli, _CountTS, make_policy)
from hierbandit.bench import (ExperimentConfig, resolve_output_dir,
                              run_experiment, run_pair, run_seed,
                              simulate_ledger, simulate_run, write_ledger_csv)
from hierbandit.cli import main
from hierbandit.envs import (PopulationSpec, RewardTable, agent_rng,
                             generate_population, make_schedule)
from hierbandit.errors import ConfigError, ScheduleError
from hierbandit.metrics import RegretLedger
from hierbandit.priors import derive_baseline_priors
from oracles import ledger_text_oracle, schedule_pairs_oracle

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _minimal_raw(**overrides):
    raw = {
        "population": {"n_tasks": 4, "horizon": 8, "n_arms": 2, "dim": 3},
        "schedule": "concurrent",
        "algorithms": ["hier-ts"],
        "seeds": 2,
    }
    raw.update(overrides)
    return raw


def test_minimal_run_writes_all_artifacts(tmp_path):
    config = ExperimentConfig.from_dict(_minimal_raw(plots=True))
    paths = run_experiment(config, str(tmp_path))
    for key in ("ledger", "curves", "summary", "manifest"):
        assert os.path.exists(paths[key])
    svgs = sorted(tmp_path.glob("*.svg"))
    assert svgs
    for svg in svgs:
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
    ledger_lines = Path(paths["ledger"]).read_text().splitlines()
    assert ledger_lines[0] == \
        "algorithm,seed,task_id,round,arm,reward,inst_regret"
    # 2 algorithms (hier-ts + auto oracle) x 2 seeds x 4 tasks x 8 rounds
    assert len(ledger_lines) == 1 + 2 * 2 * 4 * 8
    curve_lines = Path(paths["curves"]).read_text().splitlines()
    assert curve_lines[0] == "algorithm,view,index,mean,se"
    views = {line.split(",")[1] for line in curve_lines[1:]}
    assert views == {"per_round_concurrent", "per_task_sequential",
                     "mtr_per_round_concurrent", "mtr_per_task_sequential"}
    summary_lines = Path(paths["summary"]).read_text().splitlines()
    assert summary_lines[0].startswith("algorithm,cum_regret_mean")
    assert {line.split(",")[0] for line in summary_lines[1:]} == \
        {"hier-ts", "oracle-ts"}



def test_svg_text_is_escaped_as_saxutils_escapes_it(tmp_path, monkeypatch):
    from xml.sax.saxutils import escape

    texts = {"title": "a & b < c > d \" e ' f &amp; g",
             "x_label": "<round> & 'x'", "y_label": "\"y\" &amp;&lt;",
             "label": "s&p <500> \"q\" 'r' &amp;"}
    series = [svgplot.Series(texts["label"], np.arange(3.0),
                             np.array([0.5, 1.0, 0.25]))]
    labels = {key: texts[key] for key in ("title", "x_label", "y_label")}
    svgplot.write_line_plot(str(tmp_path / "own.svg"), series, **labels)
    monkeypatch.setattr(svgplot, "_escape", escape)
    svgplot.write_line_plot(str(tmp_path / "oracle.svg"), series, **labels)
    own = (tmp_path / "own.svg").read_bytes()
    assert own == (tmp_path / "oracle.svg").read_bytes()
    text = own.decode()
    for value in texts.values():
        assert escape(value) in text
    read = [el.text for el in ET.fromstring(text).iter()
            if el.tag.endswith("text")]
    assert set(texts.values()) <= set(read)

def test_rerun_is_byte_identical(tmp_path):
    config = ExperimentConfig.from_dict(_minimal_raw())
    p1 = run_experiment(config, str(tmp_path / "a"))
    p2 = run_experiment(config, str(tmp_path / "b"))
    assert Path(p1["ledger"]).read_bytes() == Path(p2["ledger"]).read_bytes()
    assert Path(p1["curves"]).read_bytes() == Path(p2["curves"]).read_bytes()


def test_manifest_reproduces_run(tmp_path):
    config = ExperimentConfig.from_dict(_minimal_raw(seeds=[3, 9]))
    paths = run_experiment(config, str(tmp_path / "first"))
    reloaded = ExperimentConfig.from_file(paths["manifest"])
    assert reloaded.population == config.population
    assert reloaded.seeds == (3, 9)
    assert [a.name for a in reloaded.algorithms] == ["hier-ts"]
    again = run_experiment(reloaded, str(tmp_path / "second"))
    assert Path(paths["ledger"]).read_bytes() == \
        Path(again["ledger"]).read_bytes()


@pytest.mark.parametrize("seeds", [None, 7, [5], [1, 1], ["a", 1], [1.5, 2.7],
                                   [True, 2], [-1, 2]],
                         ids=["missing", "int", "one", "repeated", "string",
                              "float", "bool", "negative"])
def test_manifest_seeds_validated(tmp_path, capsys, seeds):
    manifest = ExperimentConfig.from_dict(
        _minimal_raw(seeds=[3, 9])).to_manifest_dict()
    if seeds is None:
        del manifest["seeds"]
    else:
        manifest["seeds"] = seeds
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(path))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


def _population(**overrides):
    return dict({"n_tasks": 4, "horizon": 8, "n_arms": 2, "dim": 3},
                **overrides)


@pytest.mark.parametrize("overrides", [
    {"emit_mtr": "false"}, {"plots": "no"}, {"parallelism": True},
    {"population": _population(n_tasks=2.5)},
    {"population": _population(horizon=True)},
    {"population": _population(n_arms=2.0)},
    {"population": _population(dim=3.0)}],
    ids=["emit_mtr-string", "plots-string", "parallelism-bool",
         "n_tasks-float", "horizon-bool", "n_arms-float", "dim-float"])
def test_config_flag_and_integer_types_validated(tmp_path, capsys,
                                                 overrides):
    raw = _minimal_raw(**overrides)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


@pytest.mark.parametrize("overrides, error", [
    ({"schedule": "sequential", "algorithms": [
        "individual-ts", {"name": "oracle-ts", "options": {"align": "false"}}]},
     ConfigError),
    ({"population": _population(reward_kind="bernoulli"),
      "algorithms": ["individual-ts", "linear-ts"]}, ConfigError),
    ({"algorithms": ["individual-ts", "hier-ts-aligned"]}, ScheduleError)],
    ids=["oracle-align-string", "bernoulli-linear-ts", "aligned-concurrent"])
def test_algorithms_checked_when_config_is_read(tmp_path, capsys, overrides,
                                                error):
    # Refused before any pair is simulated or any directory is made.
    raw = _minimal_raw(**overrides)
    with pytest.raises(error):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


def test_unknown_keys_fatal(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(horizon=8))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(
            population={"n_tasks": 4, "horizon": 8, "n_arms": 2, "dim": 3,
                        "sigma2": 1.0}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(
            algorithms=[{"name": "hier-ts", "extra": 1}]))
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"schema_version": 1, "package_version": "0",'
                        ' "config": {}, "seeds": [0, 1], "surprise": true}')
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(manifest))


def test_missing_required_keys():
    for key in ("population", "schedule", "algorithms", "seeds"):
        raw = _minimal_raw()
        del raw[key]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


def test_seed_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(seeds=1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(seeds=[5]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(seeds=[2, 2]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(seeds=True))
    assert ExperimentConfig.from_dict(_minimal_raw(seeds=3)).seeds == (0, 1, 2)
    assert ExperimentConfig.from_dict(
        _minimal_raw(seeds=[7, 2])).seeds == (7, 2)


def test_algorithm_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(algorithms=[]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _minimal_raw(algorithms=["hier-ts", "hier-ts"]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _minimal_raw(algorithms=[{"options": {}}]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _minimal_raw(algorithms=[{"name": "hier-ts", "label": 3}]))
    config = ExperimentConfig.from_dict(_minimal_raw(algorithms=[
        {"name": "hier-ts-batch", "options": {"refresh_every": 2},
         "label": "batched"}]))
    assert config.algorithms[0].options_dict() == {"refresh_every": 2}
    assert config.algorithms[0].display == "batched"


def test_schedule_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(schedule="interleaved"))


def test_run_specs_appends_oracle():
    config = ExperimentConfig.from_dict(_minimal_raw())
    assert [a.name for a in config.run_specs()] == ["hier-ts", "oracle-ts"]
    config = ExperimentConfig.from_dict(
        _minimal_raw(algorithms=["oracle-ts", "hier-ts"]))
    assert [a.name for a in config.run_specs()] == ["oracle-ts", "hier-ts"]
    config = ExperimentConfig.from_dict(_minimal_raw(emit_mtr=False))
    assert [a.name for a in config.run_specs()] == ["hier-ts"]


def test_output_dir_precedence(monkeypatch):
    config = ExperimentConfig.from_dict(_minimal_raw(output_dir="cfg_dir"))
    monkeypatch.delenv("HIERBANDIT_OUT", raising=False)
    assert resolve_output_dir("explicit", config) == "explicit"
    assert resolve_output_dir(None, config) == "cfg_dir"
    monkeypatch.setenv("HIERBANDIT_OUT", "env_dir")
    assert resolve_output_dir(None, config) == "env_dir"
    assert resolve_output_dir("explicit", config) == "explicit"
    bare = ExperimentConfig.from_dict(_minimal_raw())
    monkeypatch.delenv("HIERBANDIT_OUT", raising=False)
    assert resolve_output_dir(None, bare) == "out"


def test_parallel_ledger_matches_serial():
    serial = ExperimentConfig.from_dict(_minimal_raw())
    parallel = ExperimentConfig.from_dict(_minimal_raw(parallelism=2))
    rows_a = list(simulate_ledger(serial).rows())
    rows_b = list(simulate_ledger(parallel).rows())
    assert rows_a == rows_b
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_raw(parallelism=0))


def test_priors_derived_once_per_seed(monkeypatch):
    # simulate_ledger builds each seed's population, reward table, priors
    # and schedule once for all its algorithms, and its ledger equals one
    # whose pairs each build their own through run_pair: serially and with
    # more workers than seeds, for every registered policy of both reward
    # kinds (the schedule is sequential, so the aligned policies run too).
    shared = ("generate_population", "RewardTable", "derive_baseline_priors",
              "make_schedule")
    calls = []

    def counted(name, build):
        def wrapper(*args):
            calls.append(name)
            return build(*args)
        return wrapper

    for kind in ("gaussian", "bernoulli"):
        raw = {"population": {"n_tasks": 3, "horizon": 4, "n_arms": 2,
                              "dim": 2, "reward_kind": kind},
               "schedule": "sequential",
               "algorithms": [
                   {"name": name, "options": {"align": True}}
                   if (kind, name) == ("gaussian", "oracle-ts") else name
                   for name in agents.algorithm_names(kind)],
               "seeds": [1, 2]}
        serial = ExperimentConfig.from_dict(raw)
        per_pair = RegretLedger()
        for algorithm in serial.run_specs():
            for seed in serial.seeds:
                per_pair.extend_run(algorithm.name, seed,
                                    *run_pair(serial, algorithm, seed))
        calls.clear()
        with monkeypatch.context() as patch:
            for name in shared:
                patch.setattr(bench, name, counted(name, getattr(bench, name)))
            assert list(simulate_ledger(serial).rows()) == \
                list(per_pair.rows())
        assert sorted(calls) == sorted(shared * len(serial.seeds))
        parallel = ExperimentConfig.from_dict(dict(raw, parallelism=3))
        assert list(simulate_ledger(parallel).rows()) == list(per_pair.rows())


def test_shipped_configs_parse():
    quick = ExperimentConfig.from_file(str(CONFIG_DIR / "quick_gaussian.yaml"))
    assert quick.seeds
    full = ExperimentConfig.from_file(
        str(CONFIG_DIR / "full_scale_gaussian.yaml"))
    pop = full.population_dict()
    assert (pop["n_tasks"], pop["horizon"], pop["n_arms"], pop["dim"]) == \
        (200, 200, 8, 15)
    assert len(full.seeds) >= 20


def test_ledger_csv_float_format(tmp_path):
    ledger = RegretLedger()
    ledger.add("alg", 0, 1, 2, 0, 0.1, 1.0 / 3.0)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, str(path))
    line = path.read_text().splitlines()[1]
    assert line == "alg,0,1,2,0,0.10000000000000001,0.33333333333333331"


def _ledger_text_joined(header, rows):
    # The writer before streaming: format every row, join, then write.
    fmt = "%s,%d,%d,%d,%d,%.17g,%.17g".__mod__
    return "\n".join([header, *map(fmt, rows)]) + "\n"


def _run_columns(rng, n):
    return (rng.integers(0, 200, n), rng.integers(1, 200, n),
            rng.integers(0, 8, n), rng.standard_normal(n), rng.random(n))


def test_streamed_ledger_csv_matches_joined_text(tmp_path):
    header = ",".join(RegretLedger.COLUMNS)
    path = tmp_path / "ledger.csv"
    ledger = RegretLedger()
    write_ledger_csv(ledger, str(path))
    assert path.read_text() == header + "\n"
    # rows buffered by add, then extend_run blocks of a few sizes, then more
    # buffered rows
    rng = np.random.default_rng(3)
    expected = []
    for seed in (0, 1):
        row = ("alg", seed, 4, 1, 2, 0.1, 1.0 / 3.0)
        ledger.add(*row)
        expected.append(row)
    for seed, n in enumerate((1, 37, 5000)):
        cols = _run_columns(rng, n)
        ledger.extend_run("alg-%d" % seed, seed, *cols)
        expected.extend(zip(repeat("alg-%d" % seed), repeat(seed),
                            *(c.tolist() for c in cols)))
    ledger.add("alg", 2, 0, 1, 1, -0.5, 0.0)
    expected.append(("alg", 2, 0, 1, 1, -0.5, 0.0))
    assert list(ledger.rows()) == expected
    write_ledger_csv(ledger, str(path))
    assert path.read_text() == _ledger_text_joined(header, expected)


def test_ledger_writer_memory_does_not_grow_with_runs(tmp_path):
    # One and two runs of 40k rows (200 tasks x 200 rounds, the largest run
    # of any shipped config or benchmark workload). The streamed writer holds
    # one block of rows as Python objects at a time, and a run's regret memo
    # keeps at most bench._REGRET_MEMO_MAX texts of these all-distinct
    # regrets, so both peak at about 0.7 MB; converting a whole run at a time
    # peaked at 3.5 MB, and the joined writer before it at 8.9 MB for 40k
    # rows and 17.7 MB for 80k.
    peaks = []
    for n_runs in (1, 2):
        ledger = RegretLedger()
        rng = np.random.default_rng(n_runs)
        for seed in range(n_runs):
            ledger.extend_run("alg", seed, *_run_columns(rng, 40_000))
        tracemalloc.start()
        try:
            write_ledger_csv(ledger, str(tmp_path / "ledger.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1_000_000, peaks
    assert peaks[1] < 1.2 * peaks[0], peaks


def _float_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def _writer_run(regrets, rewards=None, seed=0):
    # A run's columns around given regrets: tasks 0..4 in turn, each task's
    # visits counted as its rounds, arms in turn.
    regrets = np.asarray(regrets, dtype=float)
    n = regrets.shape[0]
    task_ids = np.arange(n, dtype=np.int64) % 5
    rounds = np.arange(n, dtype=np.int64) // 5 + 1
    if rewards is None:
        rewards = np.random.default_rng(seed).standard_normal(n)
    return (task_ids, rounds, task_ids % 3, np.asarray(rewards, dtype=float),
            regrets)


def _writer_cases():
    rng = np.random.default_rng(11)
    block = bench._WRITE_BLOCK
    nans = _float_bits(0x7FF8000000000001, 0x7FF8000000000002,
                       0xFFF8000000000000)
    tiny = _float_bits(1, 2, 0x000FFFFFFFFFFFFF, 0x8000000000000001)
    special = np.concatenate([nans, tiny, [np.inf, -np.inf, 0.0, -0.0]])
    switch = np.array([1e-5, 9.99e-5, 1e-4, 9.99e-4, 1e16, 1e17,
                       np.nextafter(1e-4, 0.0), np.nextafter(1e17, 0.0),
                       -1e-5, -1e17])
    return {
        "signed-zeros": _writer_run(np.tile([0.0, -0.0, 0.5, -0.0], 9),
                                    np.tile([-0.0, 0.0, 1.0], 12)),
        "nan-inf-subnormal": _writer_run(np.tile(special, 3),
                                         np.tile(special[::-1], 3)),
        "exponent-switch": _writer_run(np.tile(switch, 4),
                                       np.tile(switch[::-1], 4)),
        # repeated regrets across block edges
        "blocks": _writer_run(rng.choice([0.0, 0.1, 1 / 3, 2.5, 1e-5, 7.0],
                                         3 * block + 1)),
        # more distinct regrets than the memo keeps, each seen twice
        "memo-overflow": _writer_run(np.tile(
            rng.random(bench._REGRET_MEMO_MAX + 100), 2)),
    }


def test_ledger_writer_matches_row_at_a_time_oracle(tmp_path):
    # Every case's bytes through write_ledger_csv, one run per case plus an
    # algorithm whose name holds format directives and a negative seed.
    path = tmp_path / "ledger.csv"
    write_ledger_csv(RegretLedger(), str(path))
    assert path.read_text() == ledger_text_oracle([])
    runs = [("alg-%d" % i, i, cols)
            for i, cols in enumerate(_writer_cases().values())]
    runs.append(("50%d %s %%", -7, _writer_run([0.25, -0.0, 0.25])))
    ledger = RegretLedger()
    for algorithm, seed, cols in runs:
        ledger.extend_run(algorithm, seed, *cols)
    write_ledger_csv(ledger, str(path))
    assert path.read_bytes() == ledger_text_oracle(runs).encode()


@pytest.mark.parametrize("case", sorted(_writer_cases()))
def test_spilled_ledger_matches_row_at_a_time_oracle(tmp_path, monkeypatch,
                                                     case):
    # The same cases through run_experiment's spill files: every run plays
    # the case's columns in place of its own, handed out by the engine's
    # block seam in blocks of core.ROW_CHUNK rows.  The population covers
    # the case's tasks (0..4) and rounds, so the blocks fold into its cells.
    cols = _writer_cases()[case]
    n = cols[0].shape[0]

    def case_blocks(*run):
        for lo in range(0, n, core.ROW_CHUNK):
            yield tuple(c[lo:lo + core.ROW_CHUNK] for c in cols)

    monkeypatch.setattr(bench, "play_blocks", case_blocks)
    config = ExperimentConfig.from_dict(_minimal_raw(
        population={"n_tasks": 5, "horizon": -(-n // 5), "n_arms": 2,
                    "dim": 3},
        algorithms=["individual-ts", "pooled-ts"], seeds=[2, 0],
        emit_mtr=False))
    with np.errstate(all="ignore"):
        paths = run_experiment(config, str(tmp_path))
    expected = ledger_text_oracle([(name, seed, cols)
                                   for name in ("individual-ts", "pooled-ts")
                                   for seed in (2, 0)])
    assert Path(paths["ledger"]).read_bytes() == expected.encode()


def test_ledger_writer_memory_on_an_engine_run(monkeypatch):
    # One 40k-row run played by the engine (200 tasks x 200 rounds, K = 8)
    # written whole: the memo holds each distinct regret once, at most
    # n_tasks x K of them, and the writer peaks at about 0.3 MB (0.38 MB
    # for the row-at-a-time writer).
    memos = []

    class RecordingMemo(bench._RegretText):
        __slots__ = ()

        def __init__(self):
            memos.append(self)

    monkeypatch.setattr(bench, "_RegretText", RecordingMemo)
    config = ExperimentConfig.from_dict({
        "population": {"n_tasks": 200, "horizon": 200, "n_arms": 8,
                       "dim": 15},
        "schedule": "concurrent", "algorithms": ["individual-ts"],
        "seeds": 2, "emit_mtr": False})
    cols = run_pair(config, config.algorithms[0], 0)
    ledger = RegretLedger()
    ledger.extend_run("individual-ts", 0, *cols)
    tracemalloc.start()
    try:
        write_ledger_csv(ledger, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak
    assert len(memos) == 1
    distinct = np.unique(cols[4].view(np.int64)).shape[0]
    assert len(memos[0]) == distinct <= 200 * 8


@pytest.mark.parametrize("parallelism", [1, 2])
def test_seed_runs_share_schedule_columns(parallelism):
    # Every run of a seed, and so every ledger block of it, holds the
    # schedule's one task_id and round arrays, also when the seed comes back
    # from a worker process.
    config = ExperimentConfig.from_dict(_minimal_raw(
        algorithms=["individual-ts", "pooled-ts"], seeds=[0, 1],
        parallelism=parallelism))
    runs = run_seed(config, 0)
    assert len(runs) == 3
    for cols in runs[1:]:
        assert cols[0] is runs[0][0] and cols[1] is runs[0][1]
    assert not runs[0][0].flags.writeable and not runs[0][1].flags.writeable
    ledger = simulate_ledger(config)
    by_seed = {}
    for algorithm in ledger.algorithms():
        for seed, cols in ledger.seed_runs(algorithm):
            by_seed.setdefault(seed, []).append(cols[:2])
    assert sorted(by_seed) == [0, 1]
    for shared in by_seed.values():
        assert len(shared) == 3
        for task_ids, rounds in shared[1:]:
            assert task_ids is shared[0][0] and rounds is shared[0][1]
    assert by_seed[0][0][0] is not by_seed[1][0][0]


# sha256 of (ledger.csv, curves.csv, summary.csv) on tiny configs of 5 tasks
# x 6 rounds, one per reward model and schedule; a refactor of the agents, of
# simulate_run or of the ledger and its curves must keep these bytes.
# refresh_every is below the task length and the number of tasks, so the
# refreshing policies also refresh mid-task and mid-round.
_TINY_POPULATION = {"n_tasks": 5, "horizon": 6, "n_arms": 3, "dim": 4}
# Bernoulli hier-ts alone (emit_mtr off; its warm chain, and then the
# collapsed chain, re-pinned these bytes), and the other four Bernoulli
# policies together.
_BERNOULLI_HIER_SHA256 = {
    "sequential": (
        "36da8e2bd5508674de4a712186a7cbd4d2327a7c2c4c4b6672ed194fbdee3eff",
        "fd0e515344038f1f4cc7f2103609d8d64d9e2b1666387b683cf8761022b5c39a",
        "1b75069c30dee62b3b8bf505e25e69ccf36020345e9a5fd5243adc9923553299"),
    "concurrent": (
        "f54372e3ee7776b93a9a9b570809dfdbd06fc81d0223b7adfba798d8878d024a",
        "2ff33a2251f7cdaccf5f9fd2d7fcbef090415b805abf47a51811287aa24459e0",
        "939eb5ec5b84e0af4853f920d4664905a3af11daa0142040db49c28cffd97fd1"),
}
_BERNOULLI_SHA256 = {
    "sequential": (
        "d591928fcb190627b7c643001256c659212e62ec4e93da4ee487e894473f395c",
        "17878b65c4048e6fd6be40194387b9403cfa0423595c69cb0b92dd1b36f49be9",
        "b1d8934bd645b641caa39851a9fee361a273f5fb34dc816534f2e404e5bc6462"),
    "concurrent": (
        "ff7b0369295e7c716beda7144b42a26ac32646f18eab75e8a309fa9e764fd9ef",
        "1935eb72ada4dab620829e68efa9278ef57f579dfa3b90ac47c7f34fbad2484b",
        "f152a4f6ed700e18741205e0e061114eaa3e4278664ef060f1e5c0babbbb2cdf"),
}
_GAUSSIAN_SHA256 = {
    "sequential": (
        "d005bfbd436ecb7a385d09012d016b1852fa5ddfe5d4ea608be98cf4967bc2de",
        "177e3292b5d7b035102c295be0272345ac40bb945f0cdeb8adaa1bce6a40f248",
        "a0c2f79caebed3181672ed43c3ce7739e91d451bae30b83e9925f8c8014466bb"),
    "concurrent": (
        "46b092e6a29cb94d5fe200602a079a6e938d30a23f6bae9f6fb5b77b9511a40c",
        "90beb55159ef2ee8ed3083927f119f4209223c94e67af8b8b1a3595e3d0fd0ab",
        "d62fb1988d506c04a30cba41d9bd96efed7e30da12280b3e0babc6cc639c1087"),
}


def _artifact_sha256(tmp_path, raw):
    paths = run_experiment(ExperimentConfig.from_dict(raw), str(tmp_path))
    return tuple(hashlib.sha256(Path(paths[k]).read_bytes()).hexdigest()
                 for k in ("ledger", "curves", "summary"))


def _bernoulli_artifact_sha256(tmp_path, schedule, algorithms, **extra):
    return _artifact_sha256(tmp_path, dict({
        "population": dict(_TINY_POPULATION, reward_kind="bernoulli"),
        "schedule": schedule,
        "algorithms": algorithms,
        "seeds": [3, 4],
    }, **extra))


@pytest.mark.parametrize("schedule", sorted(_BERNOULLI_SHA256))
def test_bernoulli_policies_ledger_bytes_pinned(tmp_path, schedule):
    assert _bernoulli_artifact_sha256(
        tmp_path, schedule,
        ["oracle-ts", "individual-ts", "pooled-ts", "meta-ts"]) \
        == _BERNOULLI_SHA256[schedule]


@pytest.mark.parametrize("schedule", sorted(_BERNOULLI_HIER_SHA256))
def test_bernoulli_hier_ts_ledger_bytes_pinned(tmp_path, schedule):
    hier = {"name": "hier-ts",
            "options": {"sweeps": 10, "burn_in": 20, "refresh_every": 4}}
    assert _bernoulli_artifact_sha256(tmp_path, schedule, [hier],
                                      emit_mtr=False) \
        == _BERNOULLI_HIER_SHA256[schedule]


# Bernoulli hier-ts without refresh_every on the sequential tiny config: a
# task's segment repeats its slot, so it takes the Beta count core's scalar
# kernel, at 3 arms and at 24.
_BERNOULLI_HIER_SEGMENT_SHA256 = {
    3: ("97e714c4609625ae06f56f730392b73565740fd9b450741d6c756c5d72df6ba6",
        "336102daab93833670b2c3fbbeba663d0c9de3c7da1885e276b28eb60c6c1f1d",
        "5c1bf2345032f2d7dc30f990293075f98686ae90d334778048c99ac6a499471b"),
    24: ("236582968ef7284ed49b74021e864d9f97c0415fcacf03dde01ae551ed0164a4",
         "93ed4c3789fbf12ed31307b3c61266c624c71178dae2491a0c69f29f62829c21",
         "06c3c41e5dbe7c513290eb69972d0e6de1e6ae7debbe67860761f5e0dab37604"),
}


@pytest.mark.parametrize("n_arms", sorted(_BERNOULLI_HIER_SEGMENT_SHA256))
def test_bernoulli_hier_ts_segment_ledger_bytes_pinned(tmp_path, n_arms):
    hier = {"name": "hier-ts", "options": {"sweeps": 10, "burn_in": 20}}
    population = dict(_TINY_POPULATION, reward_kind="bernoulli",
                      n_arms=n_arms, dim=max(_TINY_POPULATION["dim"], n_arms + 1))
    assert _bernoulli_artifact_sha256(tmp_path, "sequential", [hier],
                                      emit_mtr=False, population=population) \
        == _BERNOULLI_HIER_SEGMENT_SHA256[n_arms]


@pytest.mark.parametrize("schedule", sorted(_GAUSSIAN_SHA256))
def test_gaussian_policies_artifact_bytes_pinned(tmp_path, schedule):
    algorithms = ["hier-ts",
                  {"name": "hier-ts-batch", "options": {"refresh_every": 4}},
                  "oracle-ts", "individual-ts", "pooled-ts", "linear-ts",
                  "meta-ts"]
    if schedule == "sequential":
        algorithms.append("hier-ts-aligned")
    assert _artifact_sha256(tmp_path, {
        "population": dict(_TINY_POPULATION),
        "schedule": schedule,
        "algorithms": algorithms,
        "seeds": [3, 4],
        "emit_mtr": True,
    }) == _GAUSSIAN_SHA256[schedule]


# A Gaussian concurrent config of 40 tasks x 40 rounds: each run's 1,600
# ledger rows span several of the ledger writer's blocks.
_GAUSSIAN_BLOCKS_SHA256 = (
    "d012254eda3ff6a6bd2e694cad81c4e2154299e996d4baa2c93386ed7c0115cc",
    "9c89f8bc436c14297f0a85e186a5c516d2690afe712cb5a4ab453a16bdd3f74a",
    "7f2063387c004db3b7a8c7a44c5aa0f6bb4b61b44cf186127b533282a5c57269")


def test_gaussian_multi_block_artifact_bytes_pinned(tmp_path):
    raw = {"population": {"n_tasks": 40, "horizon": 40, "n_arms": 3,
                          "dim": 4},
           "schedule": "concurrent",
           "algorithms": ["individual-ts", "pooled-ts"],
           "seeds": [3, 4], "emit_mtr": True}
    assert _artifact_sha256(tmp_path, raw) == _GAUSSIAN_BLOCKS_SHA256
    # the in-memory ledger through write_ledger_csv writes the same bytes
    path = tmp_path / "simulated.csv"
    write_ledger_csv(simulate_ledger(ExperimentConfig.from_dict(raw)),
                     str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == _GAUSSIAN_BLOCKS_SHA256[0]


class _RecordingPolicy(Policy):
    """Plays arm 0 through the base play and records every call the
    simulation loop makes, and every act and update that play makes."""

    def __init__(self):
        self.events = []

    def act(self, task_id):
        self.events.append(("act", task_id))
        return 0

    def update(self, task_id, arm, reward):
        self.events.append(("update", task_id))

    def play(self, task_ids, payoffs):
        self.events.append(("play", tuple(task_ids.tolist())))
        return super().play(task_ids, payoffs)

    def end_of_round(self):
        self.events.append(("end_of_round",))

    def end_of_task(self, task_id):
        self.events.append(("end_of_task", task_id))


def _play(task_id):
    return [("act", task_id), ("update", task_id)]


@pytest.mark.parametrize("kind, stream, expected", [
    ("concurrent", None,
     [("play", (0, 1, 2))] + _play(0) + _play(1) + _play(2)
     + [("end_of_round",), ("play", (0, 1, 2))]
     + _play(0) + _play(1) + _play(2) + [("end_of_round",)]),
    ("sequential", None,
     [("play", (0, 0))] + _play(0) + _play(0) + [("end_of_task", 0)]
     + [("play", (1, 1))] + _play(1) + _play(1) + [("end_of_task", 1)]
     + [("play", (2, 2))] + _play(2) + _play(2)
     + [("end_of_task", 2)]),
    ("custom", [2, 0, 0, 1, 2, 1],
     [("play", (2, 0, 0, 1, 2, 1))]
     + _play(2) + _play(0) + _play(0) + _play(1) + _play(2) + _play(1)),
    ("custom", [0, 1, 2, 0, 1, 2],
     [("play", (0, 1, 2, 0, 1, 2))]
     + _play(0) + _play(1) + _play(2) + _play(0) + _play(1) + _play(2)),
])
def test_simulate_run_hook_order(kind, stream, expected):
    # One play per segment (a round, a task, or a whole custom stream; each
    # is one piece at the default core.ROW_CHUNK), then the segment's
    # boundary hook; the base play steps through it.
    spec = PopulationSpec(n_tasks=3, horizon=2, n_arms=2, dim=3, seed=5)
    population = generate_population(spec)
    schedule = make_schedule(kind, spec.n_tasks, spec.horizon, stream)
    policy = _RecordingPolicy()
    task_ids, rounds, arms, _, _ = simulate_run(
        population, RewardTable(population), policy, schedule)
    assert policy.events == expected
    assert list(zip(task_ids.tolist(), rounds.tolist())) \
        == schedule_pairs_oracle(kind, spec.n_tasks, spec.horizon, stream)
    assert arms.tolist() == [0] * len(schedule)


class _BatchRecordingPolicy(_RecordingPolicy):
    """A recorder whose play steps through its segment at most `run` tasks
    at a time (as hier-ts-batch splits its segment at theta redraws); step
    i plays arm i % 2, so the engine must keep the steps in segment order."""

    def __init__(self, run):
        super().__init__()
        self.run = run

    def play(self, task_ids, payoffs):
        self.events.append(("play", tuple(task_ids.tolist())))
        arms = np.empty(task_ids.shape[0], dtype=np.int64)
        for i, start in enumerate(range(0, task_ids.shape[0], self.run)):
            step = slice(start, start + self.run)
            self.events.append(("step", tuple(task_ids[step].tolist())))
            arms[step] = i % 2
        return arms


@pytest.mark.parametrize("kind, stream, run, expected", [
    ("concurrent", None, 3,
     [("play", (0, 1, 2)), ("step", (0, 1, 2)), ("end_of_round",)] * 2),
    ("concurrent", None, 2,
     [("play", (0, 1, 2)), ("step", (0, 1)), ("step", (2,)),
      ("end_of_round",)] * 2),
    ("sequential", None, 3,
     [("play", (0, 0)), ("step", (0, 0)), ("end_of_task", 0),
      ("play", (1, 1)), ("step", (1, 1)), ("end_of_task", 1),
      ("play", (2, 2)), ("step", (2, 2)), ("end_of_task", 2)]),
    ("custom", [0, 1, 2, 0, 1, 2], 3,
     [("play", (0, 1, 2, 0, 1, 2)), ("step", (0, 1, 2)),
      ("step", (0, 1, 2))]),
])
def test_simulate_run_batched_hook_order(kind, stream, run, expected):
    # A play that splits its segment into steps is still one play call per
    # segment; its arms land in the ledger in schedule order, each with the
    # reward the engine gathers from its own (task, round) payoff row.
    spec = PopulationSpec(n_tasks=3, horizon=2, n_arms=2, dim=3, seed=5)
    population = generate_population(spec)
    table = RewardTable(population)
    schedule = make_schedule(kind, spec.n_tasks, spec.horizon, stream)
    policy = _BatchRecordingPolicy(run)
    task_ids, rounds, arms, rewards, _ = simulate_run(
        population, table, policy, schedule)
    assert policy.events == expected
    assert list(zip(task_ids.tolist(), rounds.tolist())) \
        == schedule_pairs_oracle(kind, spec.n_tasks, spec.horizon, stream)
    want_arms = []
    for event in expected:
        if event[0] == "play":
            step = 0
        elif event[0] == "step":
            want_arms += [step % 2] * len(event[1])
            step += 1
    assert arms.tolist() == want_arms
    assert rewards.tolist() == [
        table.reward(int(t), int(r), int(a))
        for t, r, a in zip(task_ids, rounds, arms)]


def _both_paths(kind, name, options, n_tasks, schedule="concurrent",
                play=None, no_steps=False, n_arms=3, records=(),
                stats=lambda policy: (), table=RewardTable, horizon=7):
    """simulate_run of one policy through its own play (or the function
    play, if given) and through the base loop, Policy.play; each as
    (columns, generator end state), the arrays stats(policy) returns after
    the run appended to the columns.  Both policies first take the
    (task, arm, reward) records through update.  no_steps=True makes act
    and update fail on the first path, which must then not step.  A custom
    schedule plays the tasks in a shuffled order.  Both paths read the
    reward table table(population) builds, horizon rounds per task."""
    spec = PopulationSpec(n_tasks=n_tasks, horizon=horizon, n_arms=n_arms,
                          dim=max(4, n_arms + 1), reward_kind=kind, seed=21)
    population = generate_population(spec)
    table = table(population)
    priors = derive_baseline_priors(spec, population.theta, n_mc=2000)
    stream = None
    if schedule == "custom":
        stream = np.random.default_rng(23).permutation(
            np.repeat(np.arange(n_tasks), spec.horizon)).tolist()
    segments = make_schedule(schedule, spec.n_tasks, spec.horizon, stream)
    out = []
    for reference in (False, True):
        ctx = AgentContext(population, priors, agent_rng(22, name), schedule)
        policy = make_policy(name, ctx, options)
        for record in records:
            policy.update(*record)
        if reference:
            policy.play = MethodType(Policy.play, policy)
        else:
            if play is not None:
                policy.play = MethodType(play, policy)
            if no_steps:
                policy.act = policy.update = None
        cols = simulate_run(population, table, policy, segments)
        out.append(((*cols, *stats(policy)), ctx.rng.bit_generator.state))
    return out


def _assert_same_run(both):
    (own, state_own), (looped, state_loop) = both
    for col_own, col_loop in zip(own, looped):
        assert col_own.dtype == col_loop.dtype
        assert np.array_equal(col_own, col_loop)
    assert state_own == state_loop


_BERNOULLI_HIER = {"sweeps": 20, "burn_in": 10}
_FLAGGED = [("gaussian", "individual-ts", {}),
            ("gaussian", "oracle-ts", {"align": False}),
            ("gaussian", "oracle-ts", {"align": True}),
            ("gaussian", "meta-ts", {}),
            ("gaussian", "hier-ts-batch", {"refresh_every": None})]
_FLAGGED += [("gaussian", "hier-ts-batch", {"refresh_every": m})
             for m in (1, 3, 7, "n_tasks+1")]
_FLAGGED += [("bernoulli", "individual-ts", {}),
             ("bernoulli", "oracle-ts", {}),
             ("bernoulli", "meta-ts", {}),
             ("bernoulli", "hier-ts", _BERNOULLI_HIER)]
_FLAGGED += [("bernoulli", "hier-ts", dict(_BERNOULLI_HIER, refresh_every=m))
             for m in (1, 3, 7)]


@pytest.mark.parametrize("n_tasks", [1, 6])
@pytest.mark.parametrize("kind, name, options", _FLAGGED)
def test_round_batched_path_matches_act_update_loop(kind, name, options,
                                                    n_tasks):
    # The count core's play takes a concurrent round (distinct slots) as
    # one vectorized step, never stepping; with refresh_every it cuts the
    # round at each refresh (hier-ts-batch: a coefficient redraw, Bernoulli
    # hier-ts: a chain advance).
    if options.get("refresh_every") == "n_tasks+1":
        options = {"refresh_every": n_tasks + 1}
    _assert_same_run(_both_paths(kind, name, options, n_tasks, no_steps=True))


@pytest.mark.parametrize("n_tasks", [1, 6])
@pytest.mark.parametrize("schedule", ["concurrent", "sequential", "custom"])
def test_pooled_ts_play_matches_act_update_loop(schedule, n_tasks):
    # Gaussian pooled-ts plays every segment as its scalar kernel, with the
    # counts each segment carries in from the segments before it.
    _assert_same_run(_both_paths("gaussian", "pooled-ts", {}, n_tasks,
                                 schedule, no_steps=True))


@pytest.mark.parametrize("normals", ["generator", "zeros"])
def test_pooled_ts_play_continues_from_carried_counts(normals):
    # One segment played by the kernel on a slot that already holds pulls,
    # against the loop.  Arms 0 and 1 carry equal statistics, so with every
    # normal zero their scores tie at the top and the kernel must pick arm
    # 0, as argmax does.
    spec = PopulationSpec(n_tasks=4, horizon=5, n_arms=3, dim=4, seed=24)
    population = generate_population(spec)
    table = RewardTable(population)
    priors = derive_baseline_priors(spec, population.theta)
    task_ids = np.array([2, 0, 3, 1, 2, 0])
    rounds = np.array([1, 1, 1, 1, 2, 2])
    runs = []
    for play in (PooledTS.play, Policy.play):
        rng = agent_rng(25, "pooled-ts") if normals == "generator" \
            else SimpleNamespace(standard_normal=np.zeros)
        policy = make_policy("pooled-ts", AgentContext(
            population, priors, rng, "concurrent"))
        for record in [(0, 0, 0.25), (1, 1, 2.0), (2, 2, -1.5), (3, 0, 2.0),
                       (0, 1, 0.25)]:
            policy.update(*record)
        arms = play(policy, task_ids, table.arm_rewards(task_ids, rounds))
        runs.append([arms, policy.counts.copy(), policy.sums.copy()])
        if normals == "generator":
            runs[-1].append(rng.bit_generator.state)
    kernel, looped = runs
    for got, want in zip(kernel[:3], looped[:3]):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert kernel[3:] == looped[3:]
    if normals == "zeros":
        assert kernel[0][0] == 0


class _NormalQueue:
    """A generator stand-in whose standard_normal serves one fixed array of
    normals in order, whatever shape each call asks for; taken, the count
    of normals served, is its state."""

    def __init__(self, normals):
        self.normals, self.taken = np.ravel(normals), 0

    def standard_normal(self, shape):
        size = int(np.prod(shape))
        out = self.normals[self.taken:self.taken + size].reshape(shape)
        self.taken += size
        return out.copy()


def _spy_pooled_ts(monkeypatch):
    """The list to which Gaussian pooled-ts play appends each speculative
    pass as ("pass", rows, rows committed) and each scalar stretch as
    ("scalar", rows), in order."""
    log = []
    speculate, scalar = PooledTS._speculate, PooledTS._play_scalar

    def spy_pass(self, guess, *args):
        done = speculate(self, guess, *args)
        log.append(("pass", guess.shape[0], done))
        return done

    def spy_scalar(self, normals, payoffs):
        log.append(("scalar", normals.shape[0]))
        return scalar(self, normals, payoffs)

    monkeypatch.setattr(PooledTS, "_speculate", spy_pass)
    monkeypatch.setattr(PooledTS, "_play_scalar", spy_scalar)
    return log


def _pooled_ts_both(n_arms, records, payoffs, normals=None):
    """PooledTS.play against Policy.play on one piece of payoff rows, after
    the (task, arm, reward) records through update; each as ((arms,
    counts, sums), generator end state).  The generator is agent_rng's, or
    a _NormalQueue of normals."""
    spec = PopulationSpec(n_tasks=4, horizon=5, n_arms=n_arms,
                          dim=max(4, n_arms + 1), seed=24)
    population = generate_population(spec)
    priors = derive_baseline_priors(spec, population.theta, n_mc=2000)
    runs = []
    for play in (PooledTS.play, Policy.play):
        rng = agent_rng(25, "pooled-ts") if normals is None \
            else _NormalQueue(normals)
        policy = make_policy("pooled-ts", AgentContext(
            population, priors, rng, "custom"))
        for record in records:
            policy.update(*record)
        arms = play(policy, np.arange(payoffs.shape[0]) % 4, payoffs)
        state = rng.bit_generator.state if normals is None else rng.taken
        runs.append(((arms, policy.counts.copy(), policy.sums.copy()), state))
    return runs


@pytest.mark.parametrize("n_arms", [1, 3, 24])
def test_pooled_ts_whole_passes_verify_on_concentrated_counts(monkeypatch,
                                                              n_arms):
    # 100 carried pulls per arm put the last arm's mean 1.0 ahead of every
    # other arm's by ten posterior sds, so each row's guess under the
    # piece's starting posterior holds: 600 rows go as whole windows of
    # 256, 256 and 88 rows, and the scalar loop never runs.
    means = np.zeros(n_arms)
    means[-1] = 1.0
    records = [(a % 4, a, means[a]) for a in range(n_arms)
               for _ in range(100)]
    payoffs = np.random.default_rng(26).normal(means, 1.0, (600, n_arms))
    log = _spy_pooled_ts(monkeypatch)
    both = _pooled_ts_both(n_arms, records, payoffs)
    _assert_same_run(both)
    assert log == [("pass", 256, 256), ("pass", 256, 256), ("pass", 88, 88)]
    assert (both[0][0][0] == n_arms - 1).all()


def _follows_the_backoff(log, pieces, carry=True):
    """Whether log, the spy's record of pieces of the given row counts
    played from a fresh policy, follows the fallback rule: after a pass
    that commits fewer than 8 rows, the scalar loop plays the next
    min(stretch, rows left in the piece); the stretch starts at 8, doubles
    after each such stretch, starts again after a pass that commits 8 or
    more and, with carry, carries over to the next piece.  The scalar loop
    also plays a piece's last rows when fewer than 8 remain."""
    events, stretch = iter(log), 8
    for n in pieces:
        played, failed = 0, False
        stretch = stretch if carry else 8
        while played < n:
            event = next(events, None)
            left = n - played
            if event is None:
                return False
            if event[0] == "pass":
                if failed or left < 8 or event[1] != min(left, 256):
                    return False
                played += event[2]
                failed = event[2] < 8
                stretch = stretch if failed else 8
            else:
                if event[1] != (min(stretch, left) if failed else left) \
                        or not (failed or left < 8):
                    return False
                played += event[1]
                stretch, failed = stretch * 2 if failed else stretch, False
    return next(events, None) is None


@pytest.mark.parametrize("n_arms", [3, 24])
def test_pooled_ts_fresh_stream_falls_back_to_the_scalar_loop(monkeypatch,
                                                              n_arms):
    # From a fresh slot every arm looks alike, so passes keep failing
    # within a few rows and the scalar loop plays stretches of 8, 16, 32,
    # ... rows between them.
    payoffs = np.random.default_rng(27).normal(0.0, 1.0, (250, n_arms))
    log = _spy_pooled_ts(monkeypatch)
    _assert_same_run(_pooled_ts_both(n_arms, (), payoffs))
    assert ("scalar", 8) in log and ("scalar", 16) in log
    assert _follows_the_backoff(log, [250])


# Arm 0 leads at first but pays -1.0, so its mean sinks below arm 1's; arm
# 1 pays -50.0, so the one row that plays it sends play back to arm 0.
# With every normal zero, scores are the posterior means.
_SWITCH_RECORDS = [(0, 0, 2.0)] * 20 + [(1, 1, 1.0)] * 5 + [(2, 2, -2.0)] * 5
_SWITCH_PAYOFFS = np.tile([-1.0, -50.0, 0.0], (60, 1))


def _switch_row():
    """The first row at which the loop plays arm 1 on _SWITCH_PAYOFFS."""
    (_, _), (looped, _) = _pooled_ts_both(3, _SWITCH_RECORDS, _SWITCH_PAYOFFS,
                                          np.zeros((60, 3)))
    return int(np.argmax(looped[0] == 1))


def test_pooled_ts_pass_fails_at_its_last_row(monkeypatch):
    # A piece that ends at the switch: every row guesses arm 0, the one
    # pass rescores its last row to arm 1 and commits every row.
    r = _switch_row()
    assert 8 <= r < 60
    log = _spy_pooled_ts(monkeypatch)
    both = _pooled_ts_both(3, _SWITCH_RECORDS, _SWITCH_PAYOFFS[:r + 1],
                           np.zeros((r + 1, 3)))
    _assert_same_run(both)
    assert log == [("pass", r + 1, r + 1)]
    assert both[0][0][0].tolist() == [0] * r + [1]


def test_pooled_ts_pass_fails_at_its_first_row(monkeypatch):
    # The first pass commits through the switch row r.  Its rescore of row
    # r + 1 still saw arm 0 pulled at r and so guesses arm 1, but arm 1's
    # -50.0 payoff at r sends row r + 1 back to arm 0: the second pass
    # fails at its first row, and the scalar loop plays the next 8.
    r = _switch_row()
    log = _spy_pooled_ts(monkeypatch)
    both = _pooled_ts_both(3, _SWITCH_RECORDS, _SWITCH_PAYOFFS,
                           np.zeros((60, 3)))
    _assert_same_run(both)
    assert log[:3] == [("pass", 60, r + 1), ("pass", 59 - r, 1),
                       ("scalar", 8)]
    assert both[0][0][0][r:r + 2].tolist() == [1, 0]


class _NoiseTable:
    """Payoff rows of standard normal noise, every arm's mean 0, so that
    pooled-ts keeps exploring."""

    def __init__(self, population):
        spec = population.spec
        self.noise = np.random.default_rng(28).standard_normal(
            (spec.n_tasks, spec.horizon, spec.n_arms))

    def arm_rewards(self, task_ids, rounds):
        return self.noise[task_ids, np.asarray(rounds) - 1]


def test_pooled_ts_backoff_carries_across_row_chunk_cuts(monkeypatch):
    # A 6-task x 60-round custom stream of pure noise in pieces of 20 rows:
    # no pass spans a cut, and the stretch that a piece's failed passes
    # left carries into the next piece, which the log would not follow if
    # the stretch started again at every piece.
    monkeypatch.setattr(core, "ROW_CHUNK", 20)
    log = _spy_pooled_ts(monkeypatch)
    _assert_same_run(_both_paths("gaussian", "pooled-ts", {}, 6, "custom",
                                 no_steps=True, stats=_all_statistics,
                                 table=_NoiseTable, horizon=60))
    assert _follows_the_backoff(log, [20] * 18)
    assert not _follows_the_backoff(log, [20] * 18, carry=False)


# The statistics each Gaussian precision-form kernel reads and writes.
_KERNEL_STATS = {
    "hier-ts": lambda p: (p.acc.phi_vinv_phi, p.acc.phi_vinv_resid,
                          p.acc.counts, p.acc.sums, p.counts, p.sums),
    "linear-ts": lambda p: (p.a_mat, p.b_vec),
}


@pytest.mark.parametrize("carried", [False, True])
@pytest.mark.parametrize("n_arms", [3, 24])
@pytest.mark.parametrize("n_tasks", [1, 6])
@pytest.mark.parametrize("schedule", ["concurrent", "sequential", "custom"])
@pytest.mark.parametrize("name", sorted(_KERNEL_STATS))
def test_gaussian_precision_kernel_matches_act_update_loop(
        name, schedule, n_tasks, n_arms, carried):
    # hier-ts and linear-ts play every segment as one scalar kernel that
    # redraws theta from every earlier update; columns, generator state and
    # the statistics must equal the loop's bit for bit, also when update
    # calls have filled the statistics before the run.
    records = [(0, 0, 0.25), (0, 1, 2.0), (n_tasks - 1, 2, -1.5),
               (0, 0, 1.0)] if carried else ()
    _assert_same_run(_both_paths("gaussian", name, {}, n_tasks, schedule,
                                 no_steps=True, n_arms=n_arms,
                                 records=records, stats=_KERNEL_STATS[name]))


@pytest.mark.parametrize("normals", ["generator", "zeros"])
@pytest.mark.parametrize("name", sorted(_KERNEL_STATS))
def test_gaussian_precision_kernel_ties_go_to_the_lowest_arm(name, normals):
    # One segment played by the kernel against the loop.  Arms 0 and 1 of
    # every task share one feature row and carry equal statistics, so with
    # every normal zero (theta is then its posterior mean) their scores tie
    # at the top and the kernel must pick arm 0, as argmax does.
    spec = PopulationSpec(n_tasks=4, horizon=5, n_arms=3, dim=4, seed=24)
    population = generate_population(spec)
    table = RewardTable(population)
    priors = derive_baseline_priors(spec, population.theta)
    task_ids = np.array([2, 0, 3, 1, 2, 0])
    rounds = np.array([1, 1, 1, 1, 2, 2])
    runs = []
    for kernel in (True, False):
        rng = agent_rng(25, name) if normals == "generator" \
            else SimpleNamespace(standard_normal=np.zeros)
        policy = make_policy(name, AgentContext(
            population, priors, rng, "sequential"))
        features = policy.acc.features if name == "hier-ts" \
            else policy.features
        features[:, 1] = features[:, 0]
        for record in [(2, 0, 2.0), (2, 1, 2.0), (2, 2, -1.5), (0, 0, 0.25),
                       (0, 1, 0.25)]:
            policy.update(*record)
        play = type(policy).play if kernel else Policy.play
        arms = play(policy, task_ids, table.arm_rewards(task_ids, rounds))
        state = rng.bit_generator.state if normals == "generator" else None
        runs.append(((arms, *(a.copy() for a in _KERNEL_STATS[name](policy))),
                     state))
    _assert_same_run(runs)
    if normals == "zeros":
        assert runs[0][0][0][0] == 0


_BERNOULLI_COUNT = [("hier-ts", _BERNOULLI_HIER), ("oracle-ts", {}),
                    ("individual-ts", {}), ("pooled-ts", {}), ("meta-ts", {})]
_BERNOULLI_COUNT += [("hier-ts", dict(_BERNOULLI_HIER, refresh_every=m))
                     for m in (3, 7)]


@pytest.mark.parametrize("n_arms", [3, 24])
@pytest.mark.parametrize("n_tasks", [1, 6])
@pytest.mark.parametrize("schedule", ["sequential", "custom"])
@pytest.mark.parametrize("name, options", _BERNOULLI_COUNT)
def test_bernoulli_segment_kernel_matches_act_update_loop(name, options,
                                                          schedule, n_tasks,
                                                          n_arms):
    # A segment that repeats a slot runs as the Beta count core's scalar
    # kernel, never stepping, at any number of arms; hier-ts with
    # refresh_every runs it piece by piece between refreshes.
    _assert_same_run(_both_paths("bernoulli", name, options, n_tasks, schedule,
                                 no_steps=True, n_arms=n_arms))


_SCALAR_KERNELS = [("gaussian", name, {}) for name in ("pooled-ts",
                                                       *_KERNEL_STATS)]
_SCALAR_KERNELS += [("bernoulli", name, options)
                    for name, options in _BERNOULLI_COUNT]


@pytest.mark.parametrize("kind, name, options", _SCALAR_KERNELS)
def test_scalar_kernels_match_loop_across_row_chunks(monkeypatch, kind, name,
                                                     options):
    # A custom stream is one segment (42 steps here); the engine hands it
    # over in pieces of five rows, so every scalar kernel continues its
    # segment across eight cuts and must still equal the loop bit for bit.
    monkeypatch.setattr(core, "ROW_CHUNK", 5)
    _assert_same_run(_both_paths(kind, name, options, 6, "custom",
                                 no_steps=True, stats=_all_statistics))


def _custom_stream_peak(kind, name):
    """tracemalloc peak of simulate_run for one policy playing 200 tasks x
    200 rounds x 8 arms as one custom segment."""
    spec = PopulationSpec(n_tasks=200, horizon=200, n_arms=8, dim=15,
                          reward_kind=kind, seed=5)
    population = generate_population(spec)
    table = RewardTable(population)
    priors = derive_baseline_priors(spec, population.theta, n_mc=2000)
    stream = np.random.default_rng(6).permutation(
        np.repeat(np.arange(spec.n_tasks), spec.horizon)).tolist()
    schedule = make_schedule("custom", spec.n_tasks, spec.horizon, stream)
    schedule.columns()
    policy = make_policy(name, AgentContext(
        population, priors, agent_rng(7, name), "custom"))
    tracemalloc.start()
    try:
        simulate_run(population, table, policy, schedule)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_scalar_kernel_memory_on_a_long_custom_stream(kind):
    # 200 tasks x 200 rounds x 8 arms played as one custom segment by the
    # pooled-ts kernel.  The engine hands it over, and reads its payoff
    # rows, core.ROW_CHUNK rows at a time: the run peaks at 3.82 MB
    # (Gaussian) and 2.47 MB (Bernoulli), and each bound is its peak plus
    # 25%.  Reading the whole segment's payoffs at once peaked at 8.7 and
    # 8.6 MB; converting its rows at once as well, at 29.8 and 17.8 MB.
    peak = _custom_stream_peak(kind, "pooled-ts")
    assert peak < {"gaussian": 4_800_000, "bernoulli": 3_100_000}[kind], peak


@pytest.mark.parametrize("name", ["hier-ts", "linear-ts"])
def test_precision_kernel_memory_on_a_long_custom_stream(name):
    # The same stream through the Gaussian precision kernels, which draw
    # their normals and check their draws once per engine piece: 6.24 MB
    # (hier-ts) and 3.27 MB (linear-ts), each bound the peak plus 25%.
    # Chunking inside the kernel with the segment's payoffs read whole
    # peaked at 8.8 and 8.3 MB; keeping every step's theta and scores for
    # one check per segment, at 29.2 and 14.5 MB.
    peak = _custom_stream_peak("gaussian", name)
    assert peak < {"hier-ts": 7_800_000, "linear-ts": 4_100_000}[name], peak


@pytest.mark.parametrize("name", ["hier-ts", "linear-ts"])
def test_precision_kernel_raises_at_the_end_of_a_later_chunk(monkeypatch,
                                                             name):
    # simulate_run hands a 20-step custom stream to the kernel as four
    # five-step pieces; a non-finite theta drawn in the second raises
    # NumericalError when that piece ends: after ten draws, not at the end
    # of the stream.
    monkeypatch.setattr(core, "ROW_CHUNK", 5)
    spec = PopulationSpec(n_tasks=4, horizon=5, n_arms=3, dim=4, seed=77)
    population = generate_population(spec)
    priors = derive_baseline_priors(spec, population.theta, n_mc=2000)
    policy = make_policy(name, AgentContext(
        population, priors, agent_rng(78, name), "custom"))
    draw, draws = agents.precision_draw, []

    def poisoned(*args):
        draws.append(draw(*args))
        return draws[-1] * np.nan if len(draws) == 7 else draws[-1]

    monkeypatch.setattr(agents, "precision_draw", poisoned)
    schedule = make_schedule("custom", spec.n_tasks, spec.horizon,
                             np.tile(np.arange(spec.n_tasks),
                                     spec.horizon).tolist())
    with pytest.raises(errors.NumericalError, match="non-finite"):
        simulate_run(population, RewardTable(population), policy, schedule)
    assert len(draws) == 10


class _PieceRecorder(Policy):
    """Records each piece the engine hands play, and each boundary hook."""

    def __init__(self):
        self.events = []

    def play(self, task_ids, payoffs):
        self.events.append(("play", task_ids.tolist()))
        return np.zeros(task_ids.shape[0], dtype=np.int64)

    def end_of_round(self):
        self.events.append(("end_of_round",))

    def end_of_task(self, task_id):
        self.events.append(("end_of_task", task_id))


@pytest.mark.parametrize("chunk", [1, 2, 4, 4096])
@pytest.mark.parametrize("kind", ["concurrent", "sequential", "custom"])
def test_engine_bounds_every_piece_and_hooks_once_per_segment(monkeypatch,
                                                              kind, chunk):
    # Each segment (a round of 7 tasks, a task of 9 rounds, the custom
    # stream of 63 steps) reaches play as consecutive pieces of at most
    # core.ROW_CHUNK rows, and its one hook fires after its last piece.
    monkeypatch.setattr(core, "ROW_CHUNK", chunk)
    spec = PopulationSpec(n_tasks=7, horizon=9, n_arms=2, dim=3, seed=5)
    population = generate_population(spec)
    stream = np.random.default_rng(8).permutation(
        np.repeat(np.arange(spec.n_tasks), spec.horizon)).tolist() \
        if kind == "custom" else None
    policy = _PieceRecorder()
    simulate_run(population, RewardTable(population), policy,
                 make_schedule(kind, spec.n_tasks, spec.horizon, stream))
    tasks = [t for t, _ in schedule_pairs_oracle(kind, spec.n_tasks,
                                                 spec.horizon, stream)]
    size = {"concurrent": spec.n_tasks, "sequential": spec.horizon,
            "custom": len(tasks)}[kind]
    expected = []
    for start in range(0, len(tasks), size):
        segment = tasks[start:start + size]
        expected += [("play", segment[i:i + chunk])
                     for i in range(0, len(segment), chunk)]
        if kind == "concurrent":
            expected.append(("end_of_round",))
        elif kind == "sequential":
            expected.append(("end_of_task", segment[-1]))
    assert policy.events == expected
    assert all(len(e[1]) <= chunk for e in expected if e[0] == "play")


# Every registered policy with each of its options, as the engine's piece
# cut must leave them: (kind, name, options).
_CUT_POLICIES = [("gaussian", name, {}) for name in (
    "hier-ts", "hier-ts-aligned", "individual-ts", "pooled-ts", "linear-ts",
    "meta-ts")]
_CUT_POLICIES += [("gaussian", "hier-ts-batch", {"refresh_every": m})
                  for m in (None, 1, 4, 7)]
_CUT_POLICIES += [("gaussian", "oracle-ts", {"align": a})
                  for a in (False, True)]
_CUT_POLICIES += [("bernoulli", name, {}) for name in (
    "oracle-ts", "individual-ts", "pooled-ts", "meta-ts")]
_CUT_POLICIES += [("bernoulli", "hier-ts", dict(_BERNOULLI_HIER, **extra))
                  for extra in ({}, {"refresh_every": 4})]
_CUT_CASES = [(kind, name, options, schedule)
              for kind, name, options in _CUT_POLICIES
              for schedule in ("concurrent", "sequential", "custom")
              if name != "hier-ts-aligned" or schedule == "sequential"]


def test_cut_cases_cover_every_policy_and_option():
    for kind in ("gaussian", "bernoulli"):
        for name in agents.algorithm_names(kind):
            cut = [set(o) for k, n, o in _CUT_POLICIES if (k, n) == (kind, name)]
            assert cut, (kind, name)
            allowed = set(agents._ALLOWED_OPTIONS.get((kind, name), {}))
            assert allowed - {"burn_in", "sweeps"} <= set.union(*cut)


@functools.lru_cache(maxsize=None)
def _cut_inputs(kind):
    """A 7-task, 9-round population of kind rewards and its priors."""
    spec = PopulationSpec(n_tasks=7, horizon=9, n_arms=3, dim=4,
                          reward_kind=kind, seed=31)
    population = generate_population(spec)
    return population, derive_baseline_priors(spec, population.theta,
                                              n_mc=2000)


def _cut_run(kind, name, options, schedule):
    """simulate_run of one policy as (columns, statistics and acceptance
    rates, generator end state)."""
    population, priors = _cut_inputs(kind)
    spec = population.spec
    stream = np.random.default_rng(32).permutation(
        np.repeat(np.arange(spec.n_tasks), spec.horizon)).tolist() \
        if schedule == "custom" else None
    ctx = AgentContext(population, priors, agent_rng(33, name), schedule)
    policy = make_policy(name, ctx, options)
    cols = simulate_run(population, RewardTable(population), policy,
                        make_schedule(schedule, spec.n_tasks, spec.horizon,
                                      stream))
    rates = np.array(getattr(policy, "acceptance_rates", ()))
    return (*cols, *_all_statistics(policy), rates), \
        ctx.rng.bit_generator.state


@pytest.mark.parametrize("kind, name, options, schedule", _CUT_CASES, ids=[
    "-".join([k, n, *map("%s=%s".__mod__, o.items()), s])
    for k, n, o, s in _CUT_CASES])
def test_row_chunk_does_not_change_a_run(monkeypatch, kind, name, options,
                                         schedule):
    # At ROW_CHUNK = 2 the engine cuts every round, task and custom stream
    # into two-row pieces; each policy continues its segment across the
    # cuts, so columns, statistics and generator end state equal the run
    # at the default, where no segment here is cut.
    whole = _cut_run(kind, name, options, schedule)
    monkeypatch.setattr(core, "ROW_CHUNK", 2)
    _assert_same_run((_cut_run(kind, name, options, schedule), whole))


@pytest.mark.parametrize("n_arms", [3, 24])
@pytest.mark.parametrize("n_tasks", [1, 6])
def test_bernoulli_pooled_ts_round_matches_act_update_loop(n_tasks, n_arms):
    # Every task of a Bernoulli pooled-ts round shares slot 0, so a round of
    # more than one task runs as the scalar kernel (one task: the
    # vectorized step).
    _assert_same_run(_both_paths("bernoulli", "pooled-ts", {}, n_tasks,
                                 no_steps=True, n_arms=n_arms))


@pytest.mark.parametrize("draws", ["generator", "means"])
def test_bernoulli_kernel_continues_from_carried_counts(draws):
    # One pooled-ts round played by the kernel on a slot that already holds
    # pulls, against the loop.  Arms 0 and 1 carry equal counts, so when
    # every draw is its Beta mean their scores tie at the top and the
    # kernel must pick arm 0, as argmax does.
    spec = PopulationSpec(n_tasks=4, horizon=5, n_arms=3, dim=4,
                          reward_kind="bernoulli", seed=24)
    population = generate_population(spec)
    table = RewardTable(population)
    priors = derive_baseline_priors(spec, population.theta, n_mc=2000)
    task_ids = np.array([2, 0, 3, 1, 2, 0])
    rounds = np.array([1, 1, 1, 1, 2, 2])
    runs = []
    for play in (PooledTSBernoulli.play, Policy.play):
        rng = agent_rng(25, "pooled-ts") if draws == "generator" \
            else SimpleNamespace(beta=lambda a, b: a / (a + b))
        policy = make_policy("pooled-ts", AgentContext(
            population, priors, rng, "concurrent"))
        for record in [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 0.0), (3, 0, 0.0),
                       (0, 1, 0.0)]:
            policy.update(*record)
        arms = play(policy, task_ids, table.arm_rewards(task_ids, rounds))
        runs.append([arms, policy.counts.copy(), policy.sums.copy()])
        if draws == "generator":
            runs[-1].append(rng.bit_generator.state)
    kernel, looped = runs
    for got, want in zip(kernel[:3], looped[:3]):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert kernel[3:] == looped[3:]
    if draws == "means":
        assert kernel[0][0] == 0


@pytest.mark.parametrize("kind, cls", [("gaussian", PooledTS),
                                       ("bernoulli", PooledTSBernoulli)])
def test_wrongly_flagged_pooled_ts_diverges(kind, cls):
    # pooled-ts shares one slot across tasks, so a round's decisions read
    # each other's updates; forced through the count core's vectorized step
    # (the slot check skipped), a round would drop all but one update per
    # arm and change the columns.
    forced, looped = _both_paths(kind, "pooled-ts", {}, 6,
                                 play=cls._play_batch)
    assert not all(np.array_equal(f, l) for f, l in zip(forced[0], looped[0]))


def test_wrongly_flagged_hier_ts_diverges():
    # Gaussian hier-ts redraws theta from every earlier update, so it plays
    # each step in order; forcing the count core's play on it must change
    # the columns.
    forced, looped = _both_paths("gaussian", "hier-ts", {}, 6,
                                 play=_CountTS.play)
    assert not all(np.array_equal(f, l) for f, l in zip(forced[0], looped[0]))


class _PoisonedTable:
    """A RewardTable whose payoff rows keep the true payoff only at the arm
    a known run played at that (task, round); every other entry is NaN
    (Gaussian rewards) or the flipped outcome (Bernoulli rewards)."""

    def __init__(self, population, columns):
        self.table = RewardTable(population)
        self.kind = population.spec.reward_kind
        task_ids, rounds, arms = (col.tolist() for col in columns[:3])
        self.played = dict(zip(zip(task_ids, rounds), arms))

    def arm_rewards(self, task_ids, rounds):
        payoffs = self.table.arm_rewards(task_ids, rounds)
        rounds = np.broadcast_to(rounds, task_ids.shape)
        played = [self.played[key] for key in zip(task_ids.tolist(),
                                                   rounds.tolist())]
        unplayed = np.arange(payoffs.shape[1]) != np.array(played)[:, None]
        poison = np.nan if self.kind == "gaussian" else 1.0 - payoffs
        return np.where(unplayed, poison, payoffs)


def _all_statistics(policy):
    """Every count and accumulator array the policy keeps."""
    acc = getattr(policy, "acc", None)
    arrays = [getattr(policy, name, None)
              for name in ("counts", "sums", "a_mat", "b_vec")]
    if acc is not None:
        arrays += [acc.phi_vinv_phi, acc.phi_vinv_resid, acc.counts, acc.sums]
    return tuple(a for a in arrays if a is not None)


_POISON_CASES = [(kind, name, options, schedule)
                 for kind, name, options in _FLAGGED
                 if options.get("refresh_every") != "n_tasks+1"
                 for schedule in ("concurrent", "sequential")]
_POISON_CASES += [(kind, name, {}, schedule)
                  for kind, name in (("gaussian", "pooled-ts"),
                                     ("gaussian", "hier-ts"),
                                     ("gaussian", "linear-ts"),
                                     ("bernoulli", "pooled-ts"))
                  for schedule in ("concurrent", "sequential", "custom")]
_POISON_CASES += [("gaussian", "hier-ts-aligned", {}, "sequential")]


@pytest.mark.parametrize("kind, name, options, schedule", _POISON_CASES)
def test_policies_read_only_the_played_payoff(kind, name, options, schedule):
    # Step j of play may read payoffs[j, a] only for the arm a it plays, and
    # only after choosing it.  Replayed on payoff rows whose every other
    # entry is poisoned, a policy's own play and the base loop must give
    # the clean run's columns, statistics and generator end state.
    clean, _ = _both_paths(kind, name, options, 6, schedule,
                           stats=_all_statistics)
    poisoned = _both_paths(
        kind, name, options, 6, schedule, stats=_all_statistics,
        table=lambda population: _PoisonedTable(population, clean[0]))
    for path in poisoned:
        _assert_same_run((path, clean))


# Policies that keep the base loop, Policy.play, and so have no play-vs-loop
# case; every other registered policy must have one.
_LOOP_ONLY = [("gaussian", "hier-ts-aligned")]


def test_every_policy_and_option_has_a_play_vs_loop_case():
    # A new policy, or a new option of one, cannot skip the equivalence
    # check: it either plays through Policy.play (named in _LOOP_ONLY) or
    # appears, with each of its options, in _FLAGGED, _BERNOULLI_COUNT, the
    # Gaussian pooled-ts test or _KERNEL_STATS.
    cases = [(kind, name, set(options)) for kind, name, options in _FLAGGED]
    cases += [("bernoulli", name, set(options))
              for name, options in _BERNOULLI_COUNT]
    cases += [("gaussian", name, set())
              for name in ("pooled-ts", *_KERNEL_STATS)]
    for kind in ("gaussian", "bernoulli"):
        for name in agents.algorithm_names(kind):
            loop_only = (kind, name) in _LOOP_ONLY
            own = [opts for k, n, opts in cases if (k, n) == (kind, name)]
            assert loop_only != bool(own), (kind, name)
            assert loop_only == (agents._registry(kind)[name].play
                                 is Policy.play), (kind, name)
            options = set(agents._ALLOWED_OPTIONS.get((kind, name), {}))
            assert loop_only or options <= set().union(*own), (kind, name)


def _bernoulli_hier_ts_run(seed, n_tasks=24, horizon=20, warn_sweeps=None,
                           chain_run=None):
    """Bernoulli hier-ts alone on one seed of the bern-sequential
    population shape (K=4, d=6), as run_seed plays it; returns the policy.
    warn_sweeps and chain_run, if given, replace the policy's pooling
    length and its chain's run method."""
    spec = PopulationSpec(n_tasks=n_tasks, horizon=horizon, n_arms=4, dim=6,
                          reward_kind="bernoulli", seed=seed)
    population = generate_population(spec)
    policy = make_policy("hier-ts", AgentContext(
        population, derive_baseline_priors(spec, population.theta),
        agent_rng(seed, "hier-ts"), "sequential"))
    if warn_sweeps is not None:
        policy.warn_sweeps = warn_sweeps
    if chain_run is not None:
        policy.chain.run = chain_run
    simulate_run(population, RewardTable(population), policy,
                 make_schedule("sequential", n_tasks, horizon))
    return policy


def test_bernoulli_hier_ts_pooled_window_is_quiet_on_healthy_chains():
    # bern-sequential workload seeds 1-10 are experiment seeds 2-21.  Tested
    # on the acceptance of at least 200 pooled sweeps, no healthy chain
    # warns; tested per 20-sweep refresh, seed 20's 0-of-20 refresh did.
    for seed in range(2, 22):
        assert _bernoulli_hier_ts_run(seed).mcmc_warnings == [], seed
    noisy = _bernoulli_hier_ts_run(20, warn_sweeps=20)
    assert min(noisy.acceptance_rates) == 0.0
    assert len(noisy.mcmc_warnings) == 1


def test_bernoulli_hier_ts_pooled_window_flags_a_stuck_chain():
    # A chain that rejects every proposal warns once per 200 pooled sweeps:
    # 12 refreshes of 20 sweeps make one pool of 200 and a short one of 40,
    # which the run's end leaves untested.
    policy = _bernoulli_hier_ts_run(3, n_tasks=12, horizon=5,
                                    chain_run=lambda *args: 0)
    assert policy.acceptance_rates == [0.0] * 12
    assert policy.mcmc_warnings == [
        "post-burn-in acceptance rate 0.000 outside [0.05, 0.95]; "
        "treat the chain as suspect"]


@pytest.mark.parametrize("schedule, n_tasks, m", [("sequential", 4, 3),
                                                  ("concurrent", 6, 4)])
@pytest.mark.parametrize("loop", [False, True])
def test_bernoulli_hier_ts_refreshes_per_segment(schedule, n_tasks, m, loop):
    # Bernoulli hier-ts with refresh_every = m advances its chain (one
    # acceptance rate each) after every m interactions and at every
    # schedule boundary, which resets the count: floor(length / m) + 1
    # refreshes per segment, through play and through the base loop alike.
    segments, length = (n_tasks, 7) if schedule == "sequential" \
        else (7, n_tasks)
    spec = PopulationSpec(n_tasks=n_tasks, horizon=7, n_arms=3, dim=4,
                          reward_kind="bernoulli", seed=26)
    population = generate_population(spec)
    priors = derive_baseline_priors(spec, population.theta, n_mc=2000)
    policy = make_policy("hier-ts", AgentContext(
        population, priors, agent_rng(27, "hier-ts"), schedule),
        dict(_BERNOULLI_HIER, refresh_every=m))
    if loop:
        policy.play = MethodType(Policy.play, policy)
    simulate_run(population, RewardTable(population), policy,
                 make_schedule(schedule, spec.n_tasks, spec.horizon))
    assert len(policy.acceptance_rates) == segments * (length // m + 1)


# ---------------------------------------------------------------------------
# the streamed run
# ---------------------------------------------------------------------------

def _reference_artifacts(config, out):
    """The artifacts of an unstreamed run: the whole ledger simulated, then
    written, its curves and its summary."""
    os.makedirs(out)
    ledger = simulate_ledger(config)
    paths = {name: os.path.join(out, name + ".csv")
             for name in ("ledger", "curves", "summary")}
    write_ledger_csv(ledger, paths["ledger"])
    bench.write_curves_csv(bench.compute_curves(ledger, config),
                           paths["curves"])
    bench.write_summary_csv(ledger, config, paths["summary"])
    return {name: Path(path).read_bytes() for name, path in paths.items()}


def _custom_schedules(monkeypatch):
    # ExperimentConfig reads only the built-in kinds; every seed's schedule
    # becomes one fixed permutation of its task visits instead.
    def custom(kind, n_tasks, horizon):
        stream = np.random.default_rng(n_tasks * horizon).permutation(
            np.repeat(np.arange(n_tasks), horizon)).tolist()
        return make_schedule("custom", n_tasks, horizon, stream)
    monkeypatch.setattr(bench, "make_schedule", custom)


_STREAMED_CASES = {
    "gaussian-concurrent": ({"population": _TINY_POPULATION,
                             "schedule": "concurrent",
                             "algorithms": ["hier-ts", "pooled-ts",
                                            "linear-ts"],
                             "seeds": [3, 4, 5], "plots": True}, False),
    "bernoulli-sequential": ({"population": dict(_TINY_POPULATION,
                                                 reward_kind="bernoulli"),
                              "schedule": "sequential",
                              "algorithms": ["hier-ts", "individual-ts",
                                             "meta-ts"],
                              "seeds": [2, 8, 6]}, False),
    "custom": ({"population": _TINY_POPULATION, "schedule": "concurrent",
                "algorithms": ["hier-ts", "pooled-ts", "linear-ts"],
                "seeds": [9, 1, 4]}, True),
}


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("case", sorted(_STREAMED_CASES))
def test_streamed_run_matches_unstreamed_artifacts(tmp_path, monkeypatch,
                                                   case, parallelism):
    # Seeds are listed out of order in the non-ascending cases, so the
    # ledger's seed order (config order) and the curves' (ascending) differ.
    raw, custom = _STREAMED_CASES[case]
    if custom:
        _custom_schedules(monkeypatch)
    config = ExperimentConfig.from_dict(dict(raw, parallelism=parallelism))
    paths = run_experiment(config, str(tmp_path / "streamed"))
    expected = _reference_artifacts(config, str(tmp_path / "reference"))
    for name, data in expected.items():
        assert Path(paths[name]).read_bytes() == data, name
    assert sorted(os.listdir(tmp_path / "streamed")) == sorted(
        os.path.basename(p) for p in paths.values())


def _fail_in_seed(monkeypatch, bad_seed, marks, delay=0.0):
    # Each seed leaves a mark when its population is built; the bad seed
    # then raises, the others sleep for delay seconds.
    build = bench.generate_population

    def generate(spec):
        (marks / ("started.%d" % spec.seed)).touch()
        if spec.seed == bad_seed:
            raise RuntimeError("forced failure in seed %d" % spec.seed)
        time.sleep(delay)
        return build(spec)
    monkeypatch.setattr(bench, "generate_population", generate)


def test_streamed_run_failure_keeps_old_artifacts_and_leaves_no_spill(
        tmp_path, monkeypatch):
    # A raise in the third seed, after two seeds have written their spill
    # files, removes every spill and temp file and leaves the previous
    # run's artifacts as they were.
    out = tmp_path / "out"
    marks = tmp_path / "marks"
    marks.mkdir()
    config = ExperimentConfig.from_dict(_minimal_raw(seeds=[4, 5, 6, 7]))
    paths = run_experiment(config, str(out))
    before = {p: Path(p).read_bytes() for p in paths.values()}
    _fail_in_seed(monkeypatch, 6, marks)
    with pytest.raises(RuntimeError, match="seed 6"):
        run_experiment(config, str(out))
    assert sorted(os.listdir(marks)) == ["started.4", "started.5",
                                         "started.6"]
    assert sorted(os.listdir(out)) == sorted(os.path.basename(p)
                                             for p in paths.values())
    assert {p: Path(p).read_bytes() for p in paths.values()} == before


def test_pooled_streamed_run_failure_cancels_pending_seeds(tmp_path,
                                                           monkeypatch):
    # In the pool, a raise in seed 1 cancels the seeds not yet handed to a
    # worker, and the running ones finish before the spill files are
    # removed: none is left behind, even a while after the raise.
    out = tmp_path / "out"
    marks = tmp_path / "marks"
    marks.mkdir()
    seeds = list(range(12))
    config = ExperimentConfig.from_dict(_minimal_raw(seeds=seeds,
                                                     parallelism=2))
    paths = run_experiment(config, str(out))
    before = {p: Path(p).read_bytes() for p in paths.values()}
    _fail_in_seed(monkeypatch, 1, marks, delay=0.3)
    with pytest.raises(RuntimeError, match="seed 1"):
        run_experiment(config, str(out))
    started = os.listdir(marks)
    assert "started.1" in started and len(started) < len(seeds), started
    time.sleep(0.5)
    assert sorted(os.listdir(out)) == sorted(os.path.basename(p)
                                             for p in paths.values())
    assert {p: Path(p).read_bytes() for p in paths.values()} == before


def _recording_forks(monkeypatch):
    # The pids of every process forked while the test runs (the serial
    # run's ledger writer and any pool worker).
    forked = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording)
    return forked


def _assert_reaped(forked):
    # A reaped child is no longer this process's child: waitpid refuses it.
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _fail_in_writer(monkeypatch, delay=0.0):
    # _run_lines raises at its second block, which in a serial run is the
    # ledger writer's second block, after sleeping for delay seconds.
    run_lines = bench._run_lines
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            time.sleep(delay)
            raise OSError("disk full")
        return run_lines(*args)
    monkeypatch.setattr(bench, "_run_lines", failing)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("failure", ["none", "parent", "writer",
                                     "writer-late"])
def test_run_reaps_every_fork_and_leaves_no_spill(tmp_path, monkeypatch,
                                                  failure, parallelism):
    # A serial run forks one ledger writer (this one at any size), a pooled
    # run its workers.  After a run that succeeds, raises in a seed (the parent, in a serial run),
    # or raises in the writer (a pool worker, in a pooled run), every
    # forked process has been reaped, no spill or temp file is left, and a
    # failed run leaves the previous artifacts as they were.  The writer
    # fails while the parent still sends, or (late) once every block is in
    # the pipe, so that only the wait for the writer can see it.
    out = tmp_path / "out"
    marks = tmp_path / "marks"
    marks.mkdir()
    config = ExperimentConfig.from_dict(_minimal_raw(
        seeds=[4, 5, 6, 7], algorithms=["hier-ts", "pooled-ts"],
        parallelism=parallelism))
    paths = run_experiment(config, str(out))
    before = {p: Path(p).read_bytes() for p in paths.values()}
    monkeypatch.setattr(core, "ROW_CHUNK", 5)
    monkeypatch.setattr(bench, "_WRITER_MIN_ROWS", 0)
    forked = _recording_forks(monkeypatch)
    if failure == "none":
        assert run_experiment(config, str(out)) == paths
    elif failure == "parent":
        _fail_in_seed(monkeypatch, 6, marks)
        with pytest.raises(RuntimeError, match="seed 6"):
            run_experiment(config, str(out))
    else:
        _fail_in_writer(monkeypatch, 0.5 if failure == "writer-late" else 0)
        with pytest.raises(OSError) as caught:
            run_experiment(config, str(out))
        # the writer's own error, not the pipe it left broken
        assert type(caught.value) is OSError
        assert str(caught.value) == "disk full"
    if parallelism == 1:
        assert len(forked) == 1
    _assert_reaped(forked)
    assert sorted(os.listdir(out)) == sorted(os.path.basename(p)
                                             for p in paths.values())
    assert {p: Path(p).read_bytes() for p in paths.values()} == before


_EXIT_SCRIPT = """
import atexit, os, sys
from hierbandit import bench

log = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)

def note(what):
    os.write(log, ("%s %d\\n" % (what, os.getpid())).encode())

atexit.register(note, "atexit")
config = bench.ExperimentConfig.from_dict({
    "population": {"n_tasks": 4, "horizon": 8, "n_arms": 2, "dim": 3},
    "schedule": "concurrent", "algorithms": ["pooled-ts"], "seeds": 3})
bench._WRITER_MIN_ROWS = 0
run_lines = bench._run_lines
build = bench.generate_population

def broken_writer(*args):
    raise OSError("disk full")

def broken_seed(spec):
    raise RuntimeError("seed failed")

for case, name, fake in [("ok", "_run_lines", run_lines),
                         ("writer", "_run_lines", broken_writer),
                         ("parent", "generate_population", broken_seed)]:
    setattr(bench, name, fake)
    try:
        bench.run_experiment(config, sys.argv[2])
        note("returned-" + case)
    except Exception as exc:
        note("raised-%s-%s" % (case, type(exc).__name__))
    finally:
        note("finally-" + case)
    bench._run_lines, bench.generate_population = run_lines, build
"""


def test_ledger_writer_leaves_through_os_exit(tmp_path):
    # The writer never returns into the caller's stack (no finally or
    # except clause of the caller runs in it) and never runs atexit hooks:
    # every line of the log comes from the interpreter that ran the script,
    # after a run that succeeds, fails in the writer and fails in a seed.
    log = tmp_path / "log"
    log.touch()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(bench.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", _EXIT_SCRIPT, str(log),
                           str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in log.read_text().splitlines()]
    assert len({pid for _, pid in lines}) == 1, lines
    assert [what for what, _ in lines] == [
        "returned-ok", "finally-ok", "raised-writer-OSError",
        "finally-writer", "raised-parent-RuntimeError", "finally-parent",
        "atexit"]


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("schedule", ["concurrent", "sequential"])
def test_ledger_in_many_blocks_is_byte_identical(tmp_path, monkeypatch,
                                                 schedule, parallelism):
    # At ROW_CHUNK = 3 each run of 5 tasks x 6 rounds crosses the writer's
    # pipe (or a pool worker's spill writer) in 10 blocks, cut mid-round
    # and mid-task; ledger.csv keeps the bytes of the whole ledger written
    # at once.
    config = ExperimentConfig.from_dict({
        "population": {"n_tasks": 5, "horizon": 6, "n_arms": 3, "dim": 4},
        "schedule": schedule, "algorithms": ["hier-ts", "pooled-ts"],
        "seeds": [3, 1, 2], "parallelism": parallelism})
    monkeypatch.setattr(core, "ROW_CHUNK", 3)
    monkeypatch.setattr(bench, "_WRITER_MIN_ROWS", 0)
    paths = run_experiment(config, str(tmp_path / "run"))
    write_ledger_csv(simulate_ledger(config), str(tmp_path / "ledger.csv"))
    assert Path(paths["ledger"]).read_bytes() \
        == (tmp_path / "ledger.csv").read_bytes()


@pytest.mark.parametrize("min_rows, forks", [(128, 1), (129, 0)])
def test_serial_run_forks_its_writer_from_min_rows(tmp_path, monkeypatch,
                                                   min_rows, forks):
    # 4 tasks x 8 rounds x (hier-ts, oracle-ts) x 2 seeds = 128 ledger rows:
    # the writer is forked only from _WRITER_MIN_ROWS rows, and ledger.csv
    # is the same either way.
    config = ExperimentConfig.from_dict(_minimal_raw())
    monkeypatch.setattr(bench, "_WRITER_MIN_ROWS", min_rows)
    forked = _recording_forks(monkeypatch)
    paths = run_experiment(config, str(tmp_path / "run"))
    assert len(forked) == forks
    _assert_reaped(forked)
    write_ledger_csv(simulate_ledger(config), str(tmp_path / "ledger.csv"))
    assert Path(paths["ledger"]).read_bytes() \
        == (tmp_path / "ledger.csv").read_bytes()


def _streamed_run_peak(out, algorithms, horizon=200, seeds=2):
    """tracemalloc peak of run_experiment on 200 tasks x horizon rounds,
    K = 8, seeds 0..seeds - 1."""
    config = ExperimentConfig.from_dict({
        "population": {"n_tasks": 200, "horizon": horizon, "n_arms": 8,
                       "dim": 15},
        "schedule": "concurrent", "algorithms": algorithms, "seeds": seeds,
        "emit_mtr": False})
    tracemalloc.start()
    try:
        run_experiment(config, str(out))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_run_memory_does_not_grow_with_seeds(tmp_path):
    # Runs of 40k rows (200 tasks x 200 rounds), at 2 and 6 seeds.  Each
    # seed's runs leave only their ledger text, in spill files, and their
    # curve cells and totals, so run_experiment peaks at 4.4 MB at both
    # (6.5 MB while each run was held whole); holding every seed's columns
    # until the ledger was written peaked at 6.8 and 13.2 MB.
    peaks = [_streamed_run_peak(tmp_path / str(n), ["individual-ts"], seeds=n)
             for n in (2, 6)]
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_streamed_run_holds_no_earlier_run(tmp_path):
    # A second algorithm's run plays while nothing of the first run is held
    # but its cells, total and warnings: one algorithm and two peak at 4.38
    # and 4.39 MB.  Holding each run's columns until the next run had played
    # peaked at 5.20 and 6.14 MB.  The second run is oracle-ts, a vectorized
    # count policy; pooled-ts's scalar kernel, a Python float per step, takes
    # 7 s under tracemalloc.
    one = _streamed_run_peak(tmp_path / "one", ["individual-ts"])
    two = _streamed_run_peak(tmp_path / "two", ["individual-ts", "oracle-ts"])
    assert two < 1.1 * one, (one, two)


def test_streamed_run_memory_per_row_is_bounded(tmp_path):
    # Horizons 100 and 400: 60k more rows per run.  What grows with a run's
    # rows is the seed's reward table (64 B a row at K = 8), its schedule
    # columns (16 B) and the run's regret column (8 B), kept for the
    # pairwise total; the rest of a run streams in blocks of at most
    # core.ROW_CHUNK rows.  The bound is those 88 B plus 10%; the run grows
    # 88.2 B a row (2.61 to 7.91 MB).  Holding a run's whole columns, its
    # sort of the cell keys and the previous run's columns grew 153 B a row
    # between horizons 200 and 600.
    short = _streamed_run_peak(tmp_path / "short", ["individual-ts"], 100)
    long = _streamed_run_peak(tmp_path / "long", ["individual-ts"], 400)
    assert (long - short) / (200 * 300) <= 97, (short, long)


_CHUNK_CONFIGS = [("gaussian", schedule, ["hier-ts", "pooled-ts"])
                  for schedule in ("concurrent", "sequential")]
_CHUNK_CONFIGS += [("bernoulli", schedule, ["individual-ts", "pooled-ts"])
                   for schedule in ("concurrent", "sequential")]


@pytest.mark.parametrize("kind, schedule, algorithms", _CHUNK_CONFIGS)
def test_row_chunk_does_not_change_artifact_bytes(tmp_path, monkeypatch,
                                                  kind, schedule, algorithms):
    # At ROW_CHUNK = 7 a run of 9 tasks x 10 rounds reaches play in pieces
    # cut mid-round and mid-task, and its ledger lines, curve cells and
    # regret column come in blocks of at most 7 rows; every artifact keeps
    # the bytes of the run at the default, where each block holds the run.
    config = ExperimentConfig.from_dict({
        "population": {"n_tasks": 9, "horizon": 10, "n_arms": 3, "dim": 4,
                       "reward_kind": kind},
        "schedule": schedule, "algorithms": algorithms, "seeds": [3, 1],
        "emit_mtr": True})
    names = ("ledger", "curves", "summary")
    whole = run_experiment(config, str(tmp_path / "whole"))
    monkeypatch.setattr(core, "ROW_CHUNK", 7)
    cut = run_experiment(config, str(tmp_path / "cut"))
    for name in names:
        assert Path(cut[name]).read_bytes() == Path(whole[name]).read_bytes()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_prints_mcmc_warnings_of_a_stuck_chain(tmp_path, monkeypatch,
                                                   capsys, parallelism):
    # A Bernoulli hier-ts chain that accepts nothing warns once per seed (12
    # refreshes of 20 sweeps pool 200 sweeps once); hierbandit run prints
    # one stderr line per (algorithm, seed), exits 0, and writes the
    # artifacts it writes without the printer.
    monkeypatch.setattr(bernoulli.ThetaSampler, "run", lambda self, *a: 0)
    raw = {"population": {"n_tasks": 12, "horizon": 5, "n_arms": 4,
                          "dim": 6, "reward_kind": "bernoulli"},
           "schedule": "sequential", "algorithms": ["hier-ts"],
           "seeds": [5, 3], "parallelism": parallelism}
    config_path = tmp_path / "config.yaml"
    config_path.write_text(json.dumps(raw))
    assert main(["run", str(config_path), "--out", str(tmp_path / "a")]) == 0
    err = capsys.readouterr().err.splitlines()
    message = ("post-burn-in acceptance rate 0.000 outside [0.05, 0.95]; "
               "treat the chain as suspect")
    assert err == ["hierbandit: warning: hier-ts seed %d: %s" % (seed, message)
                   for seed in (5, 3)]
    plain = run_experiment(ExperimentConfig.from_dict(raw),
                           str(tmp_path / "b"))
    for name, path in plain.items():
        assert (tmp_path / "a" / os.path.basename(path)).read_bytes() \
            == Path(path).read_bytes(), name
