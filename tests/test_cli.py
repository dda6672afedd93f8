import json
import math
from pathlib import Path

import pytest

from viskeep import cli, simulate
from viskeep.cli import build_parser, main
from viskeep.demos import (
    BASIC_SCENARIO,
    CHAIN_S0,
    CHAIN_SPEC,
    PROFILE_JSON,
    bundle,
)
from viskeep.chains import chain_to_json_dict
from viskeep.scenarios import save_scenario, scenario_to_json_dict


@pytest.fixture
def basic_file(tmp_path):
    path = tmp_path / "basic.json"
    save_scenario(BASIC_SCENARIO, path)
    return path


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return path


def test_check_feasible_scenario(basic_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--scenario", str(basic_file),
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["feasible"] is True
    assert data["projection_agrees"] is True
    assert len(data["conditions"]) == 3


def test_check_infeasible_scenario(tmp_path, capsys):
    sc = scenario_to_json_dict(BASIC_SCENARIO)
    sc["Omega_L"] = 0.27
    path = write_json(tmp_path / "bad.json", sc)
    assert main(["check", "--scenario", str(path)]) == 1
    assert "leader_turn_rate" in capsys.readouterr().err


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", "--scenario", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_missing_file():
    assert main(["check", "--scenario", "/nonexistent/x.json"]) == 2


def test_synth_window(basic_file, tmp_path):
    out = tmp_path / "gain.json"
    dump = tmp_path / "poly.txt"
    assert main(["synth", "--scenario", str(basic_file), "--out", str(out),
                 "--dump-polytope", str(dump)]) == 0
    data = json.loads(out.read_text())
    assert data["gain"]["k11"] == pytest.approx(1.5173, abs=1e-3)
    assert data["certificates"]["admissible"] is True
    assert data["certificates"]["invariant"] is True
    assert data["certificates"]["exact"] is True
    assert data["certificates"]["tau"] == 1.0
    assert data["kkt_residual"] <= 1e-7
    assert "rationalization" in data
    assert dump.exists() and "<=" in dump.read_text()


def test_synth_output_reproducible_byte_for_byte(basic_file, tmp_path):
    out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
    assert main(["synth", "--scenario", str(basic_file), "--out", str(out1)]) == 0
    assert main(["synth", "--scenario", str(basic_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_infeasible(tmp_path):
    sc = scenario_to_json_dict(BASIC_SCENARIO)
    sc["V_L"] = 0.999
    path = write_json(tmp_path / "sat.json", sc)
    assert main(["synth", "--scenario", str(path)]) == 1


def test_simulate_with_gain_file(basic_file, tmp_path):
    gain = write_json(tmp_path / "gain.json",
                      {"k11": 1.5173, "k22": 0.3707, "k23": 0.4925})
    profile = write_json(tmp_path / "profile.json", PROFILE_JSON["basic"])
    out = tmp_path / "run"
    code = main([
        "simulate", "--scenario", str(basic_file), "--gain", str(gain),
        "--profile", str(profile), "--s0", "0.3285,-0.1626,0.1071",
        "--horizon", "3.0", "--out", str(out),
    ])
    assert code == 0
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("t,dp1,p2,beta")
    violations = json.loads((out / "violations.json").read_text())
    assert violations["clean"] is True and violations["clamp_events"] == 0


def test_simulate_rejects_oversized_start(basic_file, tmp_path):
    assert main([
        "simulate", "--scenario", str(basic_file), "--s0", "0.5,0,0",
        "--horizon", "1.0", "--out", str(tmp_path / "x"),
    ]) == 2


def test_simulate_chain(tmp_path):
    spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
    gains = write_json(tmp_path / "gains.json", [
        {"k11": 0.2066, "k22": 0.0315, "k23": 0.3361},
        {"k11": 0.5087, "k22": 0.0669, "k23": 0.3400},
        {"k11": 1.7273, "k22": 0.2678, "k23": 0.3348},
    ])
    profile = write_json(tmp_path / "profile.json", PROFILE_JSON["chain"])
    out = tmp_path / "run"
    code = main([
        "simulate", "--chain-spec", str(spec), "--gains", str(gains),
        "--profile", str(profile),
        "--s0", "0,0,0.0374;0,0,0.2244;0,0,0.2618",
        "--horizon", "3.0", "--out", str(out),
    ])
    assert code == 0
    for k in (1, 2, 3):
        assert (out / f"trace_link{k}.csv").exists()


def test_chain_command(tmp_path):
    spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
    out = tmp_path / "report.json"
    assert main(["chain", "--spec", str(spec), "--closed",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["feasible"]["feasible"] is True
    assert data["closed"]["feasible"] is False


def test_chain_command_uniform_infeasible(tmp_path):
    spec = write_json(tmp_path / "uniform.json", {
        "n": 3,
        "links": [{"a": 0.4, "b": 0.5, "d": 3.0}] * 2,
        "robots": [{"V": 0.3, "Omega": 0.5}] * 3,
    })
    assert main(["chain", "--spec", str(spec)]) == 1


def test_chain_command_length_bound(tmp_path):
    out = tmp_path / "len.json"
    code = main(["chain", "--maps", f"a=0.1,b={math.pi / 14},d=7",
                 "--max-n", "100", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["max_chain_length"]["max_robots"] == 34
    assert data["max_chain_length"]["capped"] is False


@pytest.mark.parametrize("maps", ["a=0.4,b=0.1,d=0.3", "a=-1,b=0.1,d=3",
                                  "a=0.1,b=2,d=7"])
def test_chain_command_rejects_impossible_maps(tmp_path, capsys, maps):
    out = tmp_path / "len.json"
    assert main(["chain", "--maps", maps, "--max-n", "5",
                 "--out", str(out)]) == 2
    assert "bad link geometry" in capsys.readouterr().err
    assert not out.exists()


def test_chain_command_generate(tmp_path):
    out = tmp_path / "generated.json"
    code = main(["chain", "--generate", "a=0.1,d=7,n=10,V1=0.02",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["generated"]["n"] == 10
    assert data["generated"]["provenance"]["generator"]["n"] == 10
    assert data["feasible"]["feasible"] is True


def test_fme_round_trip(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("1 0 <= 2\n-1 0 <= -1\n1 1 <= 3\n")
    out = tmp_path / "projected.txt"
    code = main(["fme", "--input", str(path), "--eliminate", "0",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "1 <= 2" in text  # y <= 2 survives the projection
    assert "feasible: True" in capsys.readouterr().err


def test_fme_detects_infeasible(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("1 <= 1\n-1 <= -2\n")
    assert main(["fme", "--input", str(path)]) == 1
    assert "feasible: False" in capsys.readouterr().err


def test_fme_matches_check_on_polytope_dump(basic_file, tmp_path):
    gain_out = tmp_path / "gain.json"
    dump = tmp_path / "poly.txt"
    assert main(["synth", "--scenario", str(basic_file),
                 "--out", str(gain_out), "--dump-polytope", str(dump)]) == 0
    assert main(["fme", "--input", str(dump), "--eliminate", "0,1,2",
                 "--out", str(tmp_path / "proj.txt")]) == 0


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    assert main(["demo", "--out", str(out), "--horizon", "2.0",
                 "--seed", "3"]) == 0
    return out


def test_demo_bundle(demo_out, tmp_path):
    out = demo_out
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"basic": "ok", "ubb": "ok", "circle": "ok",
                       "chain": "ok"}
    for name in ("basic", "ubb", "circle"):
        assert (out / name / "scenario.json").exists()
        assert (out / name / "gain.json").exists()
        assert (out / name / "trace.csv").exists()
    assert (out / "chain" / "trace_link3.csv").exists()
    assert (out / "chain" / "gains.json").exists()

    # each pair artifact is what check, synth and simulate write from the
    # bundle's own scenario.json and profile.json
    for name, noise in (("basic", []), ("ubb", ["--noise-amplitude", "0.1"])):
        src, mine = out / name, tmp_path / name
        scenario = str(src / "scenario.json")
        assert main(["check", "--scenario", scenario,
                     "--out", str(mine / "check.json")]) == 0
        assert main(["synth", "--scenario", scenario,
                     "--out", str(mine / "gain.json")]) == 0
        assert main([
            "simulate", "--scenario", scenario,
            "--gain", str(src / "gain.json"),
            "--profile", str(src / "profile.json"),
            "--s0", ",".join(repr(x) for x in bundle(name).s0),
            "--horizon", "2.0", "--seed", "3", "--out", str(mine),
        ] + noise) == 0
        for f in ("check.json", "gain.json", "violations.json", "trace.csv"):
            assert (mine / f).read_bytes() == (src / f).read_bytes(), (name, f)

    chain = out / "chain"
    assert (chain / "profile.json").exists()
    assert (chain / "violations.json").exists()
    gains = json.loads((chain / "gains.json").read_text())
    assert len(gains) == 3
    for g in gains:
        assert g["certificates"] == {"admissible": True, "invariant": True,
                                     "exact": True, "tau": 1.0}
    assert main(["chain", "--spec", str(chain / "scenario.json"),
                 "--out", str(tmp_path / "chain.json")]) == 0
    assert (tmp_path / "chain.json").read_bytes() == \
        (chain / "check.json").read_bytes()


def test_simulate_takes_demo_gain_files(demo_out, tmp_path):
    chain, mine = demo_out / "chain", tmp_path / "chain"
    assert main([
        "simulate", "--chain-spec", str(chain / "scenario.json"),
        "--gains", str(chain / "gains.json"),
        "--profile", str(chain / "profile.json"),
        "--s0", ";".join(",".join(repr(x) for x in s) for s in CHAIN_S0),
        "--horizon", "2.0", "--out", str(mine),
    ]) == 0
    for f in ("violations.json", "trace_link1.csv", "trace_link3.csv"):
        assert (mine / f).read_bytes() == (chain / f).read_bytes(), f
    basic = demo_out / "basic"
    assert main(["simulate", "--scenario", str(basic / "scenario.json"),
                 "--gain", str(basic / "gain.json"), "--horizon", "0.5",
                 "--out", str(tmp_path / "basic")]) == 0


@pytest.mark.parametrize("gain, v", [
    ({"k11": math.nan, "k22": 0.3707, "k23": 0.4925},
     PROFILE_JSON["basic"]["v"]),
    ({"k11": 1.5173, "k22": 0.3707, "k23": 0.4925},
     {"type": "constant", "value": math.nan}),
    ({"k11": None, "k22": 0.3707, "k23": 0.4925},
     PROFILE_JSON["basic"]["v"]),
    ({"k11": [1.5173], "k22": 0.3707, "k23": 0.4925},
     PROFILE_JSON["basic"]["v"]),
    ({"k11": 1.5173, "k22": 0.3707, "k23": 0.4925},
     {"type": "constant", "value": None}),
    ({"k11": 1.5173, "k22": 0.3707, "k23": 0.4925},
     {"type": "sin", "amplitude": "x", "omega": 1}),
    ({"k11": 1.5173, "k22": 0.3707, "k23": 0.4925},
     {"type": "sin", "amplitude": 0.01, "omega": [1]}),
    ({"k11": 1.5173, "k22": 0.3707, "k23": 0.4925},
     {"type": "cos", "amplitude": 0.01, "omega": 1, "phase": None}),
    ({"k11": 1.5173, "k22": 0.3707, "k23": 0.4925},
     {"type": "random", "amplitude": 0.01, "hold": None}),
    ({"k11": 1.5173, "k22": 0.3707, "k23": 0.4925},
     {"type": "random", "amplitude": 0.01, "hold": 0.5, "seed": 1.5}),
    ({"k11": 1.5173, "k22": 0.3707, "k23": 0.4925},
     {"type": "sum", "terms": 3}),
], ids=["gain", "profile", "null-gain", "list-gain", "null-value",
        "text-amplitude", "list-omega", "null-phase", "null-hold",
        "float-seed", "int-terms"])
def test_simulate_rejects_non_finite_input(basic_file, tmp_path, capsys,
                                           gain, v):
    gain_file = write_json(tmp_path / "gain.json", gain)
    profile = write_json(tmp_path / "profile.json",
                         {"v": v, "omega": PROFILE_JSON["basic"]["omega"]})
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(basic_file),
                 "--gain", str(gain_file), "--profile", str(profile),
                 "--horizon", "1.0", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (out / "violations.json").exists()


@pytest.mark.parametrize("horizon", ["inf", "1e400", "nan"])
def test_simulate_rejects_non_finite_horizon(basic_file, tmp_path, capsys,
                                             horizon):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(basic_file),
                 "--horizon", horizon, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "violations.json").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_simulate_rejects_tol_that_is_not_finite_and_nonnegative(
        basic_file, tmp_path, capsys, tol):
    gain = write_json(tmp_path / "gain.json", {"k11": 0, "k22": 0, "k23": 0})
    profile = write_json(tmp_path / "profile.json", {
        "v": {"type": "constant", "value": 0.09},
        "omega": {"type": "constant", "value": 0.2},
    })
    argv = ["simulate", "--scenario", str(basic_file), "--gain", str(gain),
            "--profile", str(profile), "--horizon", "10"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1  # p2 leaves
    out = tmp_path / "tol"
    assert main(argv + ["--out", str(out), "--tol", tol]) == 2
    assert "tol must be a finite number >= 0" in capsys.readouterr().err
    assert not (out / "violations.json").exists()


@pytest.mark.parametrize("run", ["pair", "chain"])
def test_simulate_checks_tol_before_integrating(basic_file, tmp_path, capsys,
                                                monkeypatch, run):
    def no_run(*args, **kwargs):
        raise AssertionError("integrated before the --tol check")

    monkeypatch.setattr(simulate, "_integrate", no_run)
    if run == "pair":
        argv = ["--scenario", str(basic_file)]
    else:
        spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
        gains = write_json(tmp_path / "gains.json",
                           [{"k11": 0.2, "k22": 0.03, "k23": 0.3}] * 3)
        argv = ["--chain-spec", str(spec), "--gains", str(gains)]
    out = tmp_path / "run"
    assert main(["simulate", *argv, "--tol", "nan", "--horizon", "60",
                 "--out", str(out)]) == 2
    assert "tol must be a finite number >= 0" in capsys.readouterr().err
    assert not (out / "violations.json").exists()


@pytest.mark.parametrize("s0", ["nan,0,0", "0,0,nan"])
def test_simulate_rejects_nan_start(basic_file, tmp_path, capsys, s0):
    assert main(["simulate", "--scenario", str(basic_file), "--s0", s0,
                 "--horizon", "1.0", "--out", str(tmp_path / "x")]) == 2
    assert "s0 lies outside the visibility window" in capsys.readouterr().err


def test_simulate_rejects_nan_chain_start(tmp_path, capsys):
    spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
    gains = write_json(tmp_path / "gains.json",
                       [{"k11": 0.2, "k22": 0.03, "k23": 0.3}] * 3)
    assert main(["simulate", "--chain-spec", str(spec), "--gains", str(gains),
                 "--s0", "0,0,0;0,nan,0;0,0,0", "--horizon", "1.0",
                 "--out", str(tmp_path / "x")]) == 2
    assert "s0[1] lies outside" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "synth"])
def test_library_warning_is_one_stable_line_each_time(tmp_path, capsys,
                                                      command):
    sc = scenario_to_json_dict(BASIC_SCENARIO)
    sc["Omega_L"] = 0.27
    path = write_json(tmp_path / "bad.json", sc)
    for _ in range(2):
        main([command, "--scenario", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert ("warning: scenario fails the closed-form solvability "
                "conditions") in err.splitlines()
        assert ".py:" not in err and "UserWarning" not in err


@pytest.mark.parametrize("family", ["basic", "circle", "chain"])
def test_noise_amplitude_only_for_ubb(tmp_path, capsys, family):
    sc = bundle(family).scenario
    path = tmp_path / "scenario.json"
    if family == "chain":
        write_json(path, chain_to_json_dict(sc))
        gains = write_json(tmp_path / "gains.json",
                           [{"k11": 0.2, "k22": 0.03, "k23": 0.3}] * 3)
        argv = ["--chain-spec", str(path), "--gains", str(gains)]
    else:
        save_scenario(sc, path)
        argv = ["--scenario", str(path)]
    out = tmp_path / "run"
    assert main(["simulate", *argv, "--noise-amplitude", "0.5",
                 "--horizon", "0.1", "--out", str(out)]) == 2
    assert "applies to ubb scenarios only" in capsys.readouterr().err
    assert not (out / "violations.json").exists()


@pytest.mark.parametrize("family", ["basic", "chain"])
def test_gain_flag_of_the_other_mode_exits_2(tmp_path, capsys, family):
    sc = bundle(family).scenario
    path = tmp_path / "scenario.json"
    gain = write_json(tmp_path / "gain.json",
                      {"k11": 1.5173, "k22": 0.3707, "k23": 0.4925})
    gains = write_json(tmp_path / "gains.json",
                       [{"k11": 0.2, "k22": 0.03, "k23": 0.3}] * 3)
    if family == "chain":
        write_json(path, chain_to_json_dict(sc))
        argv = ["--chain-spec", str(path), "--gains", str(gains),
                "--gain", str(gain)]
        ignored = "--gain applies"
    else:
        save_scenario(sc, path)
        argv = ["--scenario", str(path), "--gains", str(gains)]
        ignored = "--gains applies"
    out = tmp_path / "run"
    assert main(["simulate", *argv, "--horizon", "0.1",
                 "--out", str(out)]) == 2
    assert ignored in capsys.readouterr().err
    assert not (out / "violations.json").exists()


def test_simulate_needs_scenario_or_chain_spec(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--horizon", "0.1", "--out", str(out)]) == 2
    assert "--scenario or --chain-spec" in capsys.readouterr().err


def test_scenario_beside_chain_spec_exits_2(basic_file, tmp_path, capsys):
    chain = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
    gains = write_json(tmp_path / "gains.json",
                       [{"k11": 0.2, "k22": 0.03, "k23": 0.3}] * 3)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(basic_file),
                 "--chain-spec", str(chain), "--gains", str(gains),
                 "--horizon", "0.1", "--out", str(out)]) == 2
    assert "--scenario applies" in capsys.readouterr().err
    assert not (out / "violations.json").exists()


@pytest.mark.parametrize("flag", ["scenario", "profile"])
def test_non_object_json_files_exit_2(basic_file, tmp_path, capsys, flag):
    bad = write_json(tmp_path / "list.json", [1])
    if flag == "scenario":
        argv = ["check", "--scenario", str(bad)]
    else:
        argv = ["simulate", "--scenario", str(basic_file), "--profile",
                str(bad), "--horizon", "0.1", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert "must be a JSON object" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["basic", "ubb", "circle"])
def test_bundle_synth_matches_recorded_bytes(name, tmp_path):
    """The gain.json and --dump-polytope text of each pair bundle, byte for
    byte as recorded in tests/data."""
    path = tmp_path / "scenario.json"
    save_scenario(bundle(name).scenario, path)
    gain, dump = tmp_path / "gain.json", tmp_path / "poly.txt"
    assert main(["synth", "--scenario", str(path), "--out", str(gain),
                 "--dump-polytope", str(dump)]) == 0
    assert gain.read_bytes() == (DATA / f"{name}_gain.json").read_bytes()
    assert dump.read_bytes() == (DATA / f"{name}_polytope.txt").read_bytes()


def test_main_builds_one_parser(basic_file, tmp_path, capsys, monkeypatch):
    """Two calls share one parser, and it still parses after an argparse
    error."""
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert main(["check", "--scenario", str(basic_file)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["check", "--no-such-flag"])
        assert exc.value.code == 2
        out = tmp_path / "report.json"
        assert main(["check", "--scenario", str(basic_file),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["feasible"] is True
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_fme_zero_denominator_exits_2(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("1 0 <= 2\n1/0 1 <= 3\n")
    assert main(["fme", "--input", str(path)]) == 2
    assert "zero denominator in '1/0'" in capsys.readouterr().err


def test_synth_tau_with_zero_denominator_exits_2(basic_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--scenario", str(basic_file), "--tau", "1/0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tau: invalid rational value: '1/0'" in err
    assert "_fraction" not in err


@pytest.mark.parametrize("tau", ["0", "-1/2"])
def test_synth_checks_tau_before_the_polytope(basic_file, tmp_path, capsys,
                                              monkeypatch, tau):
    def no_polytope(*args, **kwargs):
        raise AssertionError("built the polytope before the --tau check")

    monkeypatch.setattr(cli, "_synth_payload", no_polytope)
    out = tmp_path / "gain.json"
    assert main(["synth", "--scenario", str(basic_file), f"--tau={tau}",
                 "--out", str(out)]) == 2
    assert "tau must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [4.0, True])
def test_chain_spec_with_non_integer_n_exits_2(tmp_path, capsys, n):
    spec = write_json(tmp_path / "chain.json",
                      {**chain_to_json_dict(CHAIN_SPEC), "n": n})
    assert main(["chain", "--spec", str(spec)]) == 2
    assert "n must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["2.5", "inf", "1e400", "nan"])
def test_chain_generate_with_non_integer_n_exits_2(tmp_path, capsys, n):
    out = tmp_path / "generated.json"
    assert main(["chain", "--generate", f"a=0.4,d=3,n={n},V1=0.1",
                 "--out", str(out)]) == 2
    assert "n must be an integer" in capsys.readouterr().err
    assert not out.exists()
