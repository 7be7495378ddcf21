"""Fast tests of the benchmark itself: metric names, the correctness
checks against corrupted outputs, and the seed's effect.

Workloads run here on a shortened horizon, so only their structure is
tested, not their reference numbers.
"""

import configparser
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import rep  # noqa: E402
import run as bench_run  # noqa: E402
from etcsim import cli, presets  # noqa: E402
from etcsim.engine import simulate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
H = 1e-4


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


def test_declared_names_and_units_are_well_formed():
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert NAME.fullmatch(m["name"]), m
            assert UNIT.fullmatch(m["unit"]), m
        assert len(set(_names(kind))) == len(SPEC[kind])
    assert {w["name"] for w in SPEC["workloads"]} <= set(rep.WORKLOADS)


@pytest.mark.parametrize("workload", list(rep.WORKLOADS))
def test_every_metric_is_emitted(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(presets, "T_FINAL", 0.02)
    reps = []
    for traced in (False, True):
        r = rep.run_rep(workload, 3, traced, time.perf_counter(), tmp_path / str(traced))
        r["traced"] = traced
        reps.append(r)
    assert set(bench_run.end_to_end(reps)) == set(_names("end_to_end"))
    assert set(bench_run.per_layer(reps)) == set(_names("per_layer"))
    assert reps[1]["layers"]["engine.steps"] == 200 * len(rep.WORKLOADS[workload][1])
    # tracing is removed again after the repetition
    assert cli.simulate is simulate


def _short_run(preset, t_final, seed=11):
    sc = presets.build_preset(preset, seed)[0][1]
    sc.t_final = t_final
    return sc, simulate(sc)


def test_min_gap_check_catches_one_step_gap():
    sc, tr = _short_run("garcia-c2e-6", 0.5)
    log = checks.EventLog.from_trace(tr)
    assert checks.check_run("garcia-c2e-6", sc, log, 0.0, 11) == []
    k = int(np.flatnonzero(~np.isnan(log.gap))[0])
    log.gap[k] = H
    assert checks.check_run("garcia-c2e-6", sc, log, 0.0, 11)


def test_dwell_time_and_delta_u_checks(tmp_path):
    assert cli.main(["--preset", "dolk-c0", "--t-final", "1.0", "--seed", "11",
                     "--out", str(tmp_path)]) == 0
    sc = presets.build_preset("dolk-c0", 11)[0][1]
    log = checks.EventLog.from_csv(tmp_path / "events.csv")
    dev = checks.final_deviation_from_metrics(tmp_path / "metrics.csv")
    assert checks.check_run("dolk-c0", sc, log, 0.0, 11) == []
    assert checks.check_run("dolk-c0", sc, log, dev, 11)  # not converged after 1 s

    short = checks.EventLog(log.agent.copy(), log.t.copy(), log.gap.copy(), log.delta_u)
    k = int(np.flatnonzero(~np.isnan(short.gap))[0])
    short.gap[k] = H
    assert checks.check_run("dolk-c0", sc, short, 0.0, 11)

    log.delta_u[0] = 1e-9
    assert checks.check_run("dolk-c0", sc, log, 0.0, 11)


def test_collapse_check():
    sc = presets.build_preset("garcia-c0", 11)[0][1]
    t = np.array([1.0, 6.5, 7.0, 7.0 + 5 * H])
    collapsed = checks.EventLog(np.array([0, 1, 0, 0]), t, np.full(4, np.nan))
    assert checks.check_run("garcia-c0", sc, collapsed, 1.0, 11) == []
    spread = checks.EventLog(np.array([0, 1, 0, 0]), t + np.array([0, 0, 0, 0.5]),
                             np.full(4, np.nan))
    assert checks.check_run("garcia-c0", sc, spread, 1.0, 11)


def test_reference_counts_and_deviation():
    sc = presets.build_preset("garcia-c2e-6", 2024)[0][1]
    log = checks.EventLog(np.zeros(3, dtype=np.int64), np.array([0.0, 1.0, 2.0]),
                          np.array([np.nan, 1.0, 1.0]))
    assert checks.check_run("garcia-c2e-6", sc, log, 0.0, 11) == []
    assert checks.check_run("garcia-c2e-6", sc, log, 0.0, checks.REFERENCE_SEED)
    assert checks.check_run("garcia-c2e-6", sc, log, 0.06, 11)


def test_artifact_checks_catch_corruption(tmp_path):
    sc, tr = _short_run("garcia-c2e-6", 0.5)
    assert cli.main(["--preset", "garcia-c2e-6", "--t-final", "0.5", "--seed", "11",
                     "--out", str(tmp_path)]) == 0
    assert checks.artifacts_exist(tmp_path) == []
    assert checks.row_count(tmp_path / "events.csv", len(tr.events)) == []
    assert checks.row_count(tmp_path / "states.csv", tr.times.size) == []
    assert checks.manifest(tmp_path / "manifest.ini", sc) == []

    events = (tmp_path / "events.csv").read_text().splitlines(keepends=True)
    (tmp_path / "events.csv").write_text("".join(events[:-1]))
    assert checks.row_count(tmp_path / "events.csv", len(tr.events))

    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(tmp_path / "manifest.ini")
    cp["etm"]["c"] = "3e-06"
    with (tmp_path / "manifest.ini").open("w") as fh:
        cp.write(fh)
    assert checks.manifest(tmp_path / "manifest.ini", sc)

    (tmp_path / "metrics.csv").unlink()
    assert checks.artifacts_exist(tmp_path)


def test_seed_changes_only_the_noise():
    for _, names in rep.WORKLOADS.values():
        a, b = rep.build(names, 2024), rep.build(names, 7)
        for name in names:
            ca = cli.scenario_to_config(a[name])
            cb = cli.scenario_to_config(b[name])
            assert (ca["noise"]["seed"], cb["noise"]["seed"]) == ("2024", "7")
            for cp in (ca, cb):
                cp.remove_option("noise", "seed")
            assert {s: dict(ca[s]) for s in ca.sections()} == \
                   {s: dict(cb[s]) for s in cb.sections()}
            assert not np.array_equal(a[name].noise.window_table(100),
                                      b[name].noise.window_table(100))


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "zeno-storm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
