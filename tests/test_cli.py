import configparser
import dataclasses
import io
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etcsim.cli as cli
from etcsim.engine import JumpStormError, Scenario, jump_storage_change, simulate
from etcsim.etm import (BerneburgParams, BerneburgScheme, DolkParams, DolkScheme, GarciaParams,
                        GarciaScheme, SingleParams, SingleSystemScheme, ZenoGuaranteeError)
from etcsim.graph import Graph, laplacian
from etcsim.presets import PRESETS
from etcsim.signals import NoiseSignal
from test_resolver import small_graph


def run_main(*argv):
    return cli.main(list(argv))


def test_list_presets_catalog(capsys):
    assert run_main("--list-presets") == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert len(names) >= 8
    for expected in ("garcia-c0", "garcia-c2e-6", "dolk-c0", "dolk-c1e-7",
                     "dolk-remark5", "berneburg-demo", "single-scalar-demo",
                     "table1-contrast"):
        assert expected in names


def test_run_preset_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_main("--preset", "garcia-c2e-6", "--t-final", "0.5",
                    "--out", str(out))
    assert code == 0
    for fname in ("states.csv", "events.csv", "metrics.csv", "manifest.ini"):
        assert (out / fname).exists()
    header = (out / "states.csv").read_text().splitlines()[0]
    assert header.startswith("t,j,x0,")
    ev_lines = (out / "events.csv").read_text().splitlines()
    assert ev_lines[0] == "agent,t,j,gap,psi,delta_u"


def test_manifest_round_trip_bit_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_main("--preset", "dolk-c1e-7", "--t-final", "1.0", "--out", str(d1)) == 0
    assert run_main("--config", str(d1 / "manifest.ini"), "--out", str(d2)) == 0
    assert (d1 / "states.csv").read_bytes() == (d2 / "states.csv").read_bytes()
    assert (d1 / "events.csv").read_bytes() == (d2 / "events.csv").read_bytes()


def test_seed_override_changes_trace(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_main("--preset", "garcia-c2e-6", "--t-final", "0.5", "--out", str(d1))
    run_main("--preset", "garcia-c2e-6", "--t-final", "0.5", "--seed", "99",
             "--out", str(d2))
    assert (d1 / "states.csv").read_bytes() != (d2 / "states.csv").read_bytes()


def test_validate_only_passes_for_guaranteed_preset(capsys):
    assert run_main("--preset", "garcia-c2e-6", "--validate-only") == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_validate_only_never_simulates(monkeypatch):
    def boom(_):
        raise AssertionError("validate must not simulate")

    monkeypatch.setattr(cli, "simulate", boom)
    assert run_main("--preset", "dolk-c0", "--validate-only") == 0


def test_validate_and_run_agree_on_rejection(tmp_path):
    # a config below the robustness bound without the override is
    # refused by both commands
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[graph]\nedges = paper-fig2\n\n"
        "[etm]\nkind = garcia\na = 0.1\nc = 0\nw_bar = 0.0001\n\n"
        "[noise]\nseed = 1\namplitude = 0.0001\nsample_rate_hz = 10000\n\n"
        "[sim]\nx0 = 8, 6, 4, 2, -2, -4, -6, -8\nt_final = 1\nstep = 0.0001\n"
    )
    assert run_main("--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert run_main("--config", str(cfg), "--validate-only") == 2
    # the same config with the explicit override is accepted
    cfg_ok = tmp_path / "ok.ini"
    cfg_ok.write_text(cfg.read_text().replace("c = 0\n", "c = 0\nallow_zeno = true\n"))
    assert run_main("--config", str(cfg_ok), "--out", str(tmp_path / "o2")) == 0


def test_misspelled_choice_is_a_validation_error(tmp_path):
    # "modifed" must not fall through to the noise-naive original form
    cfg = tmp_path / "typo.ini"
    cfg.write_text(
        "[graph]\nedges = paper-fig2\n\n"
        "[etm]\nkind = garcia\na = 0.1\nc = 2e-6\nw_bar = 0.0001\nform = modifed\n\n"
        "[noise]\nseed = 1\namplitude = 0.0001\nsample_rate_hz = 10000\n\n"
        "[sim]\nx0 = 8, 6, 4, 2, -2, -4, -6, -8\nt_final = 0.1\nstep = 0.0001\n"
    )
    assert run_main("--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert run_main("--config", str(cfg), "--validate-only") == 2
    assert not (tmp_path / "o").exists()


def test_inline_graph_config(tmp_path):
    cfg = tmp_path / "tri.ini"
    cfg.write_text(
        "[graph]\nn = 3\nundirected = true\nedges =\n  0 1\n  1 2\n\n"
        "[etm]\nkind = garcia\na = 0.2\nc = 0.001\nw_bar = 0.0001\n\n"
        "[noise]\nseed = 4\namplitude = 0.0001\nsample_rate_hz = 10000\n\n"
        "[sim]\nx0 = 1, 0, -1\nt_final = 0.5\nstep = 0.0001\n"
    )
    out = tmp_path / "o"
    assert run_main("--config", str(cfg), "--out", str(out)) == 0
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(out / "manifest.ini")
    assert cp["graph"]["n"] == "3"
    assert cp.has_section("derived")


def test_unknown_preset_exit_code():
    assert run_main("--preset", "no-such-thing", "--out", "/tmp/x") == 2


def test_missing_config_exit_code(tmp_path):
    assert run_main("--config", str(tmp_path / "absent.ini")) == 4


@pytest.mark.parametrize("override", ["--decimate=0", "--step=0", "--step=-1e-4",
                                      "--t-final=-1", "--decimate=-3"])
def test_bad_override_is_a_validation_error(tmp_path, capsys, override):
    # an override goes through the scenario's own validation
    out = tmp_path / "o"
    assert run_main("--preset", "dolk-c0", override, "--out", str(out)) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_jump_storm_exit_code(tmp_path, monkeypatch):
    def storm(_):
        raise JumpStormError("synthetic")

    monkeypatch.setattr(cli, "simulate", storm)
    assert run_main("--preset", "garcia-c2e-6", "--out", str(tmp_path / "o")) == 3


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    # output path collides with an existing file
    assert run_main("--preset", "garcia-c2e-6", "--t-final", "0.01",
                    "--out", str(blocker)) == 4


def test_composite_preset_subdirectories(tmp_path):
    out = tmp_path / "o"
    assert run_main("--preset", "table1-contrast", "--t-final", "0.2",
                    "--out", str(out)) == 0
    assert (out / "original" / "states.csv").exists()
    assert (out / "modified" / "states.csv").exists()


def test_batch_mode(tmp_path):
    out = tmp_path / "o"
    code = run_main("--batch", "garcia-c2e-6,single-scalar-demo",
                    "--t-final", "0.3", "--out", str(out))
    assert code == 0
    assert (out / "garcia-c2e-6" / "metrics.csv").exists()
    assert (out / "single-scalar-demo" / "metrics.csv").exists()


def test_every_preset_resolves_without_validation_error():
    for name in PRESETS:
        pairs = cli.build_preset(name)
        assert pairs


def test_states_csv_full_precision(tmp_path):
    out = tmp_path / "o"
    run_main("--preset", "single-scalar-demo", "--t-final", "0.2", "--out", str(out))
    lines = (out / "states.csv").read_text().splitlines()
    x_col = lines[0].split(",").index("x0")
    first = float(lines[1].split(",")[x_col])
    # the initial condition survives the text round trip exactly
    assert first == 4.0


def _triangle_berneburg(rho_edge):
    g = Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)], undirected=True)
    sch = BerneburgScheme(g, BerneburgParams(rho_edge=rho_edge, c=1e-3, w_bar=1e-4))
    noise = NoiseSignal(seed=4, amplitude=np.full(3, 1e-4), sample_rate=1e4, n=3)
    return Scenario(scheme=sch, noise=noise, x0=np.array([1.0, 0.0, -1.0]), graph=g,
                    t_final=0.1)


def _reparse(sc):
    text = io.StringIO()
    cli.scenario_to_config(sc).write(text)
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(text.getvalue())
    return text.getvalue(), cli.config_to_scenario(cp)


def test_berneburg_split_weights_survive_the_manifest():
    rho = {(i, j): 0.2 for i in range(3) for j in range(3) if i != j}
    sc = _triangle_berneburg(rho)
    assert np.array_equal(sc.scheme.derived["gamma"], [10.0, 10.0, 10.0])
    text, back = _reparse(sc)
    assert back.scheme.params.rho_edge == rho
    assert np.array_equal(back.scheme.derived["gamma"], sc.scheme.derived["gamma"])
    assert np.array_equal(back.scheme.b, sc.scheme.b)
    assert _reparse(back)[0] == text
    # the default split writes no weights
    text, back = _reparse(_triangle_berneburg(None))
    assert "rho_edge" not in text
    assert back.scheme.params.rho_edge is None


def test_single_plant_feedback_survives_the_manifest():
    sch = SingleSystemScheme(SingleParams(delta_coef=0.0625, beta_coef=2.0, c=1e-6, w_bar=1e-4))
    noise = NoiseSignal(seed=4, amplitude=np.array([1e-4]), sample_rate=1e4, n=1)
    sc = Scenario(scheme=sch, noise=noise, x0=np.array([4.0]), feedback=np.array([[2.5]]),
                  t_final=0.1)
    text, back = _reparse(sc)
    assert np.array_equal(back.feedback, [[2.5]])
    assert _reparse(back)[0] == text
    assert np.array_equal(simulate(back).states, simulate(sc).states)
    # a manifest without the key keeps the unit gain it was written with
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(text)
    cp.remove_option("sim", "feedback")
    assert np.array_equal(cli.config_to_scenario(cp).feedback, [[1.0]])


def test_graphless_consensus_scenario_is_refused_before_simulating(tmp_path, monkeypatch):
    # the manifest rebuilds a consensus trigger from its graph, so a
    # scenario that has only a feedback matrix cannot be re-run from it
    g = Graph.from_edge_list(2, [(0, 1)], undirected=True)
    sch = GarciaScheme(g, GarciaParams(a=0.2, c=0.01))
    noise = NoiseSignal(seed=3, amplitude=np.zeros(2), sample_rate=1e4, n=2)
    sc = Scenario(scheme=sch, noise=noise, x0=np.array([1.0, -1.0]), feedback=laplacian(g),
                  t_final=0.1)

    def boom(_):
        raise AssertionError("a refused scenario must not be simulated")

    monkeypatch.setattr(cli, "simulate", boom)
    out = tmp_path / "o"
    assert cli.run(sc, out) == 2
    assert not out.exists()


def test_custom_consensus_feedback_survives_the_manifest():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)], undirected=True)
    sch = GarciaScheme(g, GarciaParams(a=0.2, c=1e-3, w_bar=1e-4))
    noise = NoiseSignal(seed=5, amplitude=np.full(3, 1e-4), sample_rate=1e4, n=3)
    sc = Scenario(scheme=sch, noise=noise, x0=np.array([1.0, 0.0, -1.0]), graph=g,
                  feedback=2 * laplacian(g), t_final=0.2)
    text, back = _reparse(sc)
    assert np.array_equal(back.feedback, 2 * laplacian(g))
    assert _reparse(back)[0] == text
    assert np.array_equal(simulate(back).states, simulate(sc).states)
    # the graph's own Laplacian is left out, as in every consensus preset
    assert "feedback" not in _reparse(dataclasses.replace(sc, feedback=None))[0]


def _write_ini(cp, path):
    with path.open("w") as fh:
        cp.write(fh)
    return path


@pytest.mark.parametrize("preset,section,key,value,replaces,message", [
    ("dolk-remark5", "etm", "reset_mod", "remark5", "reset_mode",
     "unknown [etm] key 'reset_mod'"),
    ("dolk-remark5", "graph", "undirceted", "false", None, "unknown [graph] key 'undirceted'"),
    ("dolk-remark5", "noise", "sed", "7", None, "unknown [noise] key 'sed'"),
    ("dolk-remark5", "sim", "decimaton", "5", "decimation", "unknown [sim] key 'decimaton'"),
    ("dolk-remark5", "sim", "detection_refinement", "true", None,
     "[sim] detection_refinement = true selects the removed in-step bisection"),
    ("single-scalar-demo", "simm", "decimation", "5", None, "unknown config section [simm]"),
    ("single-scalar-demo", "graph", "bogus", "1", None,
     "kind = single takes no [graph] section"),
], ids=["etm", "graph", "noise", "sim", "sim-legacy", "section", "single-graph"])
def test_unknown_key_is_a_validation_error(tmp_path, capsys, preset, section, key, value,
                                           replaces, message):
    # a misspelled key or section must not re-run silently under the
    # default, and the removed in-step bisection must not be asked for
    cp = cli.scenario_to_config(cli.build_preset(preset)[0][1])
    if replaces:
        cp.remove_option(section, replaces)
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = value
    cfg = _write_ini(cp, tmp_path / "typo.ini")
    assert run_main("--config", str(cfg), "--validate-only") == 2
    assert run_main("--config", str(cfg), "--t-final", "0.1", "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_legacy_detection_refinement_false_still_loads(tmp_path):
    # manifests of earlier versions carry "[sim] detection_refinement = false"
    cp = cli.scenario_to_config(cli.build_preset("garcia-c2e-6")[0][1])
    plain = _write_ini(cp, tmp_path / "plain.ini")
    cp["sim"]["detection_refinement"] = "false"
    legacy = _write_ini(cp, tmp_path / "legacy.ini")
    for cfg in (plain, legacy):
        out = tmp_path / cfg.stem
        assert run_main("--config", str(cfg), "--t-final", "0.5", "--out", str(out)) == 0
    assert (tmp_path / "plain" / "events.csv").read_text().count("\n") > 1
    for f in ("states.csv", "events.csv", "metrics.csv", "manifest.ini"):
        assert (tmp_path / "plain" / f).read_bytes() == (tmp_path / "legacy" / f).read_bytes(), f


_INLINE_GARCIA = (
    "[graph]\nn = 3\nedges =\n  0 1\n  1 2\n\n"
    "[etm]\nkind = garcia\na = 0.2\nc = 0.001\nw_bar = 0.0001\n\n"
    "[noise]\nseed = 4\namplitude = 0.0001\nsample_rate_hz = 10000\n\n"
    "[sim]\nx0 = 1, 0, -1\nt_final = 0.5\nstep = 0.0001\n"
)


@pytest.mark.parametrize("section,key", [("graph", "n"), ("noise", "seed"), ("sim", "x0"),
                                         ("etm", "a"), ("sim", "t_final"),
                                         ("etm", "delta_coef")])
def test_missing_required_key_is_a_validation_error(tmp_path, capsys, section, key):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    if key == "delta_coef":
        cp.read_dict(cli.scenario_to_config(cli.build_preset("single-scalar-demo")[0][1]))
    else:
        cp.read_string(_INLINE_GARCIA)
    assert cp.remove_option(section, key)
    cfg = _write_ini(cp, tmp_path / "missing.ini")
    assert run_main("--config", str(cfg), "--validate-only") == 2
    assert f"[{section}] needs the key '{key}'" in capsys.readouterr().err


@st.composite
def codec_scenarios(draw):
    """Scenarios of every family with random valid params: each value
    scalar or per agent, each Literal field at any of its choices."""
    family = draw(st.sampled_from(["garcia", "dolk", "berneburg", "single"]))
    if family == "single":
        graph, n = None, 1
    else:
        graph = small_graph(draw(st.sampled_from(["path", "ring", "complete", "digraph"])),
                            draw(st.integers(2, 6)))
        n = graph.n
    frac, small = st.floats(0.05, 0.95), st.floats(0.0, 1e-2)

    def per_agent(elements):
        return draw(st.one_of(elements, st.lists(elements, min_size=n, max_size=n).map(np.array)))

    def common(cls):
        """c, theta, w_bar, eps_eta and every Literal field."""
        hints = get_type_hints(cls)
        vec = draw if hints["c"] is float else per_agent
        return dict(c=vec(small), theta=vec(st.floats(0.0, 1.0)), w_bar=vec(small),
                    eps_eta=draw(st.floats(1e-3, 1.0)),
                    **{k: draw(st.sampled_from(get_args(h)))
                       for k, h in hints.items() if get_origin(h) is Literal})

    if family == "single":
        params = SingleParams(delta_coef=draw(st.floats(1e-3, 10.0)),
                              beta_coef=draw(st.floats(1e-3, 10.0)), **common(SingleParams))
        feedback = [[draw(st.floats(0.1, 10.0))]]
    else:
        a = draw(frac) * 0.5 / graph.neighbor_counts.max()
        if family == "garcia":
            params = GarciaParams(a=a, sigma=per_agent(frac), **common(GarciaParams))
        elif family == "dolk":
            params = DolkParams(a=a, varrho=draw(frac), mu=per_agent(st.floats(1e-3, 1.0)),
                                alpha=per_agent(frac), lam=per_agent(st.floats(0.05, 1.0)),
                                **common(DolkParams))
        else:
            rho = {(i, int(j)): draw(frac) / (graph.adjacency[i, j] * graph.out_neighbors(i).size)
                   for i in range(n) for j in graph.out_neighbors(i)}
            params = BerneburgParams(rho_edge=draw(st.sampled_from([None, rho])),
                                     sigma=per_agent(frac), **common(BerneburgParams))
        feedback = draw(st.sampled_from([None, 2 * laplacian(graph)]))
    build = {"garcia": GarciaScheme, "dolk": DolkScheme, "berneburg": BerneburgScheme,
             "single": lambda _graph, p, allow_zeno: SingleSystemScheme(p, allow_zeno)}[family]
    try:
        scheme = build(graph, params, draw(st.booleans()))
    except ZenoGuaranteeError:
        scheme = build(graph, params, True)
    noise = NoiseSignal(seed=draw(st.integers(0, 2**32 - 1)), amplitude=np.full(n, 1e-4),
                        sample_rate=1e4, n=n)
    x0 = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return Scenario(scheme=scheme, noise=noise, x0=x0, graph=graph, feedback=feedback,
                    t_final=0.5, decimation=draw(st.integers(1, 10)))


@settings(max_examples=150, deadline=None)
@given(sc=codec_scenarios())
def test_codec_round_trip_is_bit_identical(sc):
    text, back = _reparse(sc)
    assert _reparse(back)[0] == text
    for name in ("a", "b", "c", "theta", "w_bar", "tau_miet", "reset_gain"):
        assert getattr(back.scheme, name).tobytes() == getattr(sc.scheme, name).tobytes(), name
    assert (back.scheme.kind, back.scheme.mode, back.scheme.eps_eta, back.scheme.allow_zeno) == \
           (sc.scheme.kind, sc.scheme.mode, sc.scheme.eps_eta, sc.scheme.allow_zeno)
    assert back.feedback.tobytes() == sc.feedback.tobytes()
    assert back.x0.tobytes() == sc.x0.tobytes()


def test_chunked_writers_match_a_one_shot_write(tmp_path, monkeypatch):
    sc = cli.build_preset("garcia-c0")[0][1]
    sc.t_final = 0.3
    tr = simulate(sc)
    du = jump_storage_change(tr, sc.scheme, sc.feedback)
    assert len(tr.events) > 3 * 4 and tr.times.size > 3 * 4

    def write(chunk, d):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        d.mkdir()
        cli._write_states(d / "states.csv", tr)
        cli._write_events(d / "events.csv", tr, du)

    write(4, tmp_path / "chunked")
    write(10**9, tmp_path / "whole")
    for name in ("states.csv", "events.csv"):
        chunked = (tmp_path / "chunked" / name).read_bytes()
        assert chunked == (tmp_path / "whole" / name).read_bytes()
        assert chunked.count(b"\n") == 1 + (tr.times.size if name == "states.csv" else len(tr.events))


@pytest.fixture(scope="module")
def short_garcia_c0():
    sc = cli.build_preset("garcia-c0")[0][1]
    sc.t_final = 0.3
    tr = simulate(sc)
    return tr, jump_storage_change(tr, sc.scheme, sc.feedback)


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_writers_match_a_one_process_write(short_garcia_c0, tmp_path, monkeypatch, workers):
    tr, du = short_garcia_c0
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    assert len(tr.events) >= 4 * workers and tr.times.size >= 4 * workers

    def write(w, d):
        monkeypatch.setattr(cli, "_writer_count", lambda: w)
        d.mkdir()
        cli._write_states(d / "states.csv", tr)
        cli._write_events(d / "events.csv", tr, du)

    write(1, tmp_path / "one")
    write(workers, tmp_path / "forked")
    for name in ("states.csv", "events.csv"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    assert not list(tmp_path.rglob("*.part"))


def test_failed_writer_process_is_an_io_error(tmp_path, monkeypatch):
    import multiprocessing

    def broken(part, write_chunk, lo, hi):
        part.write_text("partial")
        raise RuntimeError("synthetic writer failure")

    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(cli, "_writer_count", lambda: 2)
    monkeypatch.setattr(cli, "_write_part", broken)
    sc = cli.build_preset("garcia-c0")[0][1]
    sc.t_final = 0.3
    out = tmp_path / "o"
    assert cli.run(sc, out) == 4
    assert not list(out.glob("*.part"))
    assert multiprocessing.active_children() == []
