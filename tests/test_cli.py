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
                                      "--t-final=-1", "--decimate=-3", "--t-final=nan",
                                      "--step=inf", "--decimate=100000000000000000000",
                                      "--seed=-1", "--seed=18446744073709551616"])
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


@pytest.mark.parametrize("names", [",", " , ", "garcia-c2e-6,garcia-c2e-6",
                                   "dolk-c0, garcia-c2e-6 ,dolk-c0"])
def test_batch_naming_no_preset_or_one_twice_is_a_validation_error(tmp_path, capsys,
                                                                   monkeypatch, names):
    def refused(_):
        raise AssertionError("simulated a refused batch")

    monkeypatch.setattr(cli, "simulate", refused)
    out = tmp_path / "o"
    assert run_main("--batch", names, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "validation error" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("names", ["garcia-c2e-6,nope", "nope,garcia-c2e-6"])
def test_batch_naming_an_unknown_preset_simulates_nothing(tmp_path, capsys, monkeypatch, names):
    def refused(_):
        raise AssertionError("simulated a refused batch")

    monkeypatch.setattr(cli, "simulate", refused)
    out = tmp_path / "o"
    assert run_main("--batch", names, "--t-final", "0.01", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "validation error" in captured.err and "'nope'" in captured.err
    assert captured.out == "" and not out.exists()


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


def test_single_plant_metrics_measure_the_distance_to_the_origin(tmp_path, capsys):
    # the single plant's target set is the origin, not its own mean
    out = tmp_path / "o"
    assert run_main("--preset", "single-scalar-demo", "--out", str(out)) == 0
    last = (out / "states.csv").read_text().splitlines()[-1].split(",")
    x = float(last[2])
    assert 0.0 < abs(x) < 1e-2
    metrics = dict(line.split(",")[:2] for line in
                   (out / "metrics.csv").read_text().splitlines()[1:])
    assert float(metrics["final_max_deviation"]) == abs(x)
    assert float(metrics["final_distance"]) == abs(x)
    assert f"final max deviation {abs(x):.4g}," in capsys.readouterr().out


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


@pytest.mark.parametrize("section,key,value,message", [
    ("noise", "sample_rate_hz", "nan", "sample_rate must be finite"),
    ("noise", "amplitude", "nan", "amplitude must be finite"),
    ("sim", "t_final", "nan", "t_final must be finite"),
    ("sim", "step", "inf", "step must be finite"),
    ("sim", "x0", "nan, 0, -1", "x0 must be finite"),
    ("sim", "feedback", "nan" + ", 0" * 8, "feedback must be finite"),
    ("etm", "c", "nan", "c must be finite"),
    ("etm", "a", "nan", "a must be finite"),
    ("etm", "sigma", "0.5, inf, 0.5", "sigma must be finite"),
    ("etm", "eps_eta", "nan", "eps_eta must be finite"),
    ("graph", "edges", "\n0 1 nan\n1 2 1", "must be finite and positive"),
])
def test_non_finite_value_is_a_validation_error(tmp_path, capsys, section, key, value, message):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(_INLINE_GARCIA)
    cp[section][key] = value
    cfg = _write_ini(cp, tmp_path / "nan.ini")
    assert run_main("--config", str(cfg), "--validate-only") == 2
    assert run_main("--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edges", ["\n0 1 1\n1 2 1\n0 1 5", "\n0 1 1\n1 0 2\n1 2 1"])
def test_an_edge_given_twice_with_another_weight_is_a_validation_error(tmp_path, capsys, edges):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(_INLINE_GARCIA)
    cp["graph"]["edges"] = edges
    cfg = _write_ini(cp, tmp_path / "twice.ini")
    assert run_main("--config", str(cfg), "--validate-only") == 2
    assert run_main("--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "given with weights" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("t_final", ["1.5e-4", "4e-5"])
def test_horizon_off_the_step_grid_is_a_validation_error(tmp_path, capsys, t_final):
    out = tmp_path / "o"
    assert run_main("--preset", "dolk-c0", "--t-final", t_final, "--out", str(out)) == 2
    assert "whole number of steps" in capsys.readouterr().err
    assert not out.exists()


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
    assert len(tr.events) > 3 * 4 and tr.times.size > 3 * 4

    def write(chunk, d):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(cli, "_TEXT_ROWS", chunk)
        d.mkdir()
        cli._write_tables(d, tr)()

    write(4, tmp_path / "chunked")
    write(10**9, tmp_path / "whole")
    for name in ("states.csv", "events.csv"):
        chunked = (tmp_path / "chunked" / name).read_bytes()
        assert chunked == (tmp_path / "whole" / name).read_bytes()
        assert chunked.count(b"\n") == 1 + (tr.times.size if name == "states.csv" else len(tr.events))


@pytest.mark.parametrize("name, silent_agent0", [("garcia-c0", False), ("dolk-c0", False),
                                                  ("garcia-c2e-6", True)])
def test_states_csv_is_savetxt_of_the_trace(tmp_path, monkeypatch, name, silent_agent0):
    # the bytes np.savetxt gives with %.17g for every float; chunks of 1000
    # rows put chunk ends inside the writer's 512-row text tables. Agent 0
    # with noise amplitude 0 latches 0.0 * (a negative draw), so its w_hat
    # column holds both 0 and -0
    sc = dataclasses.replace(cli.build_preset(name)[0][1], t_final=0.5)
    if silent_agent0:
        amplitude = sc.noise.amplitude.copy()
        amplitude[0] = 0.0
        sc = dataclasses.replace(sc, noise=dataclasses.replace(sc.noise, amplitude=amplitude))
    tr = simulate(sc)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 1000)
    cli._write_tables(tmp_path, tr)()
    header, body = (tmp_path / "states.csv").read_text().split("\n", 1)
    want = io.StringIO()
    np.savetxt(want, np.column_stack([tr.times, tr.jumps, tr.states]),
               fmt=["%.17g", "%d"] + ["%.17g"] * (5 * tr.n), delimiter=",")
    rows, want = body.splitlines(), want.getvalue().splitlines()
    bad = next((i for i, pair in enumerate(zip(rows, want)) if pair[0] != pair[1]), None)
    assert bad is None, f"row {bad}: {rows[bad]!r}, savetxt gives {want[bad]!r}"
    assert len(rows) == len(want)
    assert header.split(",")[2 * tr.n + 2] == "what_w0"
    what_w0 = {row.split(",")[2 * tr.n + 2] for row in rows}
    assert {"0", "-0"} <= what_w0 if silent_agent0 else "-0" not in what_w0


@pytest.fixture(scope="module")
def short_garcia_c0():
    sc = cli.build_preset("garcia-c0")[0][1]
    sc.t_final = 0.3
    tr = simulate(sc)
    return tr, jump_storage_change(tr)


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_writers_match_a_one_process_write(short_garcia_c0, tmp_path, monkeypatch, workers):
    # each writer computes the delta_u of the jumps in its own range
    tr, du = short_garcia_c0
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    assert len(tr.events) >= 4 * workers and tr.times.size >= 4 * workers

    def write(w, d):
        monkeypatch.setattr(cli, "_writer_count", lambda: w)
        d.mkdir()
        cli._write_tables(d, tr)()

    write(1, tmp_path / "one")
    write(workers, tmp_path / "forked")
    for name in ("states.csv", "events.csv"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    rows = (tmp_path / "forked" / "events.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == [cli._FMT % v for v in du.tolist()]
    assert not list(tmp_path.rglob("*.part"))


@pytest.mark.parametrize("workers, bounds", [(2, [0, 71, 100]), (3, [0, 58, 82, 100])])
def test_forked_writers_split_the_work_not_the_rows(tmp_path, monkeypatch, workers, bounds):
    # rows [0, s) cost s**2: each range is the first rows that reach its
    # share of the whole cost
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(cli, "_writer_count", lambda: workers)
    path = tmp_path / "ranges.txt"
    cli._write_rows([(path, "")], 100, lambda fh, lo, hi: fh.write(f"{lo} {hi}\n"),
                    lambda s: s * s)()
    assert path.read_text() == "".join(f"{lo} {hi}\n" for lo, hi in zip(bounds, bounds[1:]))


def test_failed_writer_process_is_an_io_error(tmp_path, monkeypatch):
    import multiprocessing

    def broken(parts, write_range, lo, hi):
        for part in parts:
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


BATCH = ("--batch", "dolk-c0,garcia-c0", "--t-final", "0.3", "--seed", "2024")


def _run_batch(out, capsys):
    code = run_main(*BATCH, "--out", str(out))
    return code, capsys.readouterr().out


def test_pipelined_batch_matches_a_one_process_batch(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    out = tmp_path / "o"
    monkeypatch.setattr(cli, "_writer_count", lambda: 1)
    one = _run_batch(out, capsys)
    out.rename(tmp_path / "one")
    monkeypatch.setattr(cli, "_writer_count", lambda: 2)
    assert one[0] == 0
    assert [line.split(":")[0] for line in one[1].splitlines()] == ["dolk-c0", "garcia-c0"]
    assert _run_batch(out, capsys) == one
    for name in ("dolk-c0", "garcia-c0"):
        for f in ("states.csv", "events.csv", "metrics.csv", "manifest.ini"):
            assert (out / name / f).read_bytes() == (tmp_path / "one" / name / f).read_bytes()
    assert not list(tmp_path.rglob("*.part"))


def test_failed_writer_in_a_batch_is_an_io_error_and_the_next_run_is_written(
        tmp_path, monkeypatch, capsys):
    import multiprocessing

    write_part = cli._write_part

    def broken_in_dolk(parts, write_range, lo, hi):
        if parts[0].parent.name == "dolk-c0":
            raise RuntimeError("synthetic writer failure")
        write_part(parts, write_range, lo, hi)

    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(cli, "_writer_count", lambda: 1)
    _, reference = _run_batch(tmp_path / "one", capsys)
    monkeypatch.setattr(cli, "_writer_count", lambda: 2)
    monkeypatch.setattr(cli, "_write_part", broken_in_dolk)
    out = tmp_path / "o"
    code, stdout = _run_batch(out, capsys)
    assert code == 4
    assert stdout == reference.splitlines(keepends=True)[1].replace(str(tmp_path / "one"),
                                                                     str(out))
    for f in ("states.csv", "events.csv", "metrics.csv", "manifest.ini"):
        written = (out / "garcia-c0" / f).read_bytes()
        assert written == (tmp_path / "one" / "garcia-c0" / f).read_bytes()
    assert not list(tmp_path.rglob("*.part"))
    assert multiprocessing.active_children() == []


def test_batch_drops_each_trace_before_simulating_the_next(tmp_path, monkeypatch):
    import gc
    import weakref

    traces, alive = [], []

    def tracking_simulate(scenario):
        alive.append([ref() is not None for ref in traces])
        trace = simulate(scenario)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(cli, "_writer_count", lambda: 2)
    monkeypatch.setattr(cli, "simulate", tracking_simulate)
    gc.disable()  # the trace must go by its reference count, not by a collection
    try:
        assert run_main(*BATCH, "--out", str(tmp_path / "o")) == 0
    finally:
        gc.enable()
    assert alive == [[], [False]]
