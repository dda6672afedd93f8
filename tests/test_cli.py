import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from viskeep import cli, scenarios, simulate, systems
from viskeep.cli import build_parser, main
from viskeep.demos import (
    BASIC_SCENARIO,
    BUNDLES,
    CHAIN_S0,
    CHAIN_SPEC,
    DEFAULT_DT,
    DEFAULT_HORIZON,
    ERROR_TARGET,
    PROFILE_JSON,
)
from viskeep.chains import chain_to_json_dict, save_chain
from viskeep.inequalities import LinearInequalitySystem
from viskeep.scenarios import (
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
)
from viskeep.synthesis import InfeasiblePolytopeError


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


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**400, 10**400),
    st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def _scenario_dicts(draw):
    """A bundle's scenario JSON under a random type, with up to three of
    its fields dropped, scaled or replaced by any JSON value, and a key
    maybe added."""
    data = scenario_to_json_dict(
        draw(st.sampled_from([b.scenario for b in list(BUNDLES.values())[:3]])))
    data["type"] = draw(_JSON_VALUES if draw(st.integers(0, 3)) == 3 else
                        st.sampled_from([data["type"], "basic", "ubb", "circle"]))
    for key in draw(st.lists(st.sampled_from(list(data)[1:]), max_size=3,
                             unique=True)):
        how = draw(st.sampled_from(["drop", "scale", "any"]))
        if how == "drop":
            del data[key]
        elif how == "scale":
            data[key] *= draw(st.floats(0.0, 3.0))
        else:
            data[key] = draw(_JSON_VALUES)
    data.update(draw(st.dictionaries(
        st.sampled_from(["d", "gamma", "rho", "H_F", "H_L", "x"]),
        st.one_of(st.floats(0.0, 1.0), _JSON_VALUES), max_size=1)))
    return data


@settings(max_examples=200, deadline=None, database=None)
@given(_scenario_dicts())
def test_scenario_loader_raises_only_input_errors(data):
    """Whatever a scenario file holds, loading it, `check` and `synth` end
    in a ValueError (exit 2) or an empty gain polytope (exit 1), never in a
    traceback."""
    try:
        sc = scenario_from_json_dict(data)
        cli._check_payload(sc)
        cli._synth_payload(sc)
    except (ValueError, InfeasiblePolytopeError):
        pass


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
    links = json.loads((out / "violations.json").read_text())["links"]
    assert [link["clamp_events"] for link in links] == [0, 0, 0]


def test_chain_violations_record_clamp_events(tmp_path):
    """Each link of a chain's violations.json records its clamp_events, as
    a pair's file does: with 20 times the demo's gains the inputs saturate,
    the run exits 1, and the file shows which links were clamped."""
    spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
    gains = write_json(tmp_path / "gains.json", [
        {key: 20 * k for key, k in g.items()} for g in (
            {"k11": 0.2066, "k22": 0.0315, "k23": 0.3361},
            {"k11": 0.5087, "k22": 0.0669, "k23": 0.3400},
            {"k11": 1.7273, "k22": 0.2678, "k23": 0.3348},
        )
    ])
    profile = write_json(tmp_path / "profile.json", PROFILE_JSON["chain"])
    out = tmp_path / "run"
    assert main([
        "simulate", "--chain-spec", str(spec), "--gains", str(gains),
        "--profile", str(profile),
        "--s0", "0,0,0.0374;0,0,0.2244;0,0,0.2618",
        "--horizon", "3.0", "--out", str(out),
    ]) == 1
    links = json.loads((out / "violations.json").read_text())["links"]
    clamps = [link["clamp_events"] for link in links]
    assert len(clamps) == 3 and max(clamps) > 0, links


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
    """34 robots fit the demo's geometry; a near-degenerate window takes
    every robot up to --max-n 20000, in about 0.02 s, as the search is
    linear in --max-n (test_max_chain_length_is_linear_in_n_max)."""
    out = tmp_path / "len.json"
    for maps, max_n, robots, capped in (
            (f"a=0.1,b={math.pi / 14},d=7", "100", 34, False),
            ("a=0.0001,b=0.001,d=3", "20000", 20000, True)):
        assert main(["chain", "--maps", maps, "--max-n", max_n,
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())["max_chain_length"]
        assert data["max_robots"] == robots
        assert data["capped"] is capped


@pytest.mark.parametrize("maps", ["a=0.4,b=0.1,d=0.3", "a=-1,b=0.1,d=3",
                                  "a=0.1,b=2,d=7"])
def test_chain_command_rejects_impossible_maps(tmp_path, capsys, maps):
    out = tmp_path / "len.json"
    assert main(["chain", "--maps", maps, "--max-n", "5",
                 "--out", str(out)]) == 2
    assert "bad link geometry" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where, edit, message", [
    ("links", {"a": 10**300},
     "bad link geometry: d = 3.0 does not exceed a = an int of 301 digits"),
    ("links", {"b": 2.0}, "bad link geometry: b = 2.0 is not in (0, pi/2]"),
    ("robots", {"V": 10**300},
     "bad robot limits: V = an int of 301 digits is not in (0, 1)"),
    ("robots", {"Omega": -1.0},
     "bad robot limits: Omega = -1.0 is not positive"),
], ids=["huge-a", "wide-b", "huge-V", "negative-Omega"])
def test_chain_spec_errors_name_the_field(tmp_path, capsys, where, edit,
                                          message):
    """A finite JSON number that breaks the geometry or the robot limits is
    named with its field, not echoed with the whole link or robot."""
    spec = chain_to_json_dict(CHAIN_SPEC)
    spec[where][0].update(edit)
    path = write_json(tmp_path / "chain.json", spec)
    out = tmp_path / "chain_out.json"
    assert main(["chain", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert all(len(line) < 100 for line in err.splitlines()), err
    assert not out.exists()


def test_chain_generate_names_a_missing_key(tmp_path, capsys):
    """A --generate list without one of its keys exits 2 with a line that
    says what the list needs and which key is missing."""
    out = tmp_path / "generated.json"
    assert main(["chain", "--generate", "a=0.1,d=7,n=6",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: generate needs a=..,d=..,n=..,V1=..; " \
                  "'V1' is missing\n"
    assert not out.exists()


@pytest.mark.parametrize("option, values, key", [
    ("--generate", "a=0.1,d=7,n=4,V1=0.02,saftey=0.5", "saftey"),
    ("--maps", "a=0.1,b=0.2244,d=7,x=3", "x"),
])
def test_chain_key_lists_reject_an_unknown_key(tmp_path, capsys, option,
                                               values, key):
    """A key that --generate or --maps does not take, such as a misspelt
    ``safety``, exits 2 with one line that names it; it is not ignored."""
    out = tmp_path / "chain.json"
    assert main(["chain", option, values, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key!r} is not one of" in err
    assert not out.exists()


def test_chain_generate_names_a_token_without_a_value(tmp_path, capsys):
    """A --generate token with no ``=`` exits 2 with a line that names it."""
    out = tmp_path / "generated.json"
    assert main(["chain", "--generate", "a=0.1,d=7,n=6,V1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: generate needs a=..,d=..,n=..,V1=..; " \
                  "'V1' has no '=' and no value\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["chain", "--generate", "a=0.1,d=7,n=6,V1="], "V1"),
    (["chain", "--maps", "a=0.1,b=x,d=7"], "b"),
    (["chain", "--maps", "a=0.1,b=0.5,d=inf"], "d"),
    (["chain", "--generate", "a=0.1,d=inf,n=6,V1=0.02"], "d"),
    (["chain", "--generate", "a=0.1,d=7,n=6,V1=0.02,safety=nan"], "safety"),
], ids=["empty", "text", "maps-inf", "generate-inf", "nan"])
def test_chain_key_lists_name_a_value_that_is_not_a_finite_number(
        tmp_path, capsys, argv, key):
    """A --generate or --maps value that is empty, not a number or not
    finite exits 2 with one line that names its key: an infinite d gave
    max_robots 9 from --maps and an infeasible schedule from --generate."""
    out = tmp_path / "chain.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key!r} must be a finite number" in err
    assert not out.exists()


def test_simulate_names_an_s0_that_is_not_numbers(basic_file, tmp_path,
                                                  capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(basic_file), "--s0", "0.1,x,0",
                 "--horizon", "1.0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --s0 takes numbers separated by commas, " \
                  "not '0.1,x,0'\n"
    assert not out.exists()


@pytest.mark.parametrize("payload", [5, {"a": 1}, "gains"])
def test_simulate_gains_must_be_a_list(tmp_path, capsys, payload):
    """A --gains file that holds no list exits 2 with one line that says so;
    a number gave a TypeError traceback and exit 1, a dict ran its keys."""
    spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
    gains = write_json(tmp_path / "gains.json", payload)
    out = tmp_path / "run"
    assert main(["simulate", "--chain-spec", str(spec), "--gains", str(gains),
                 "--horizon", "1.0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: '--gains' must be a list of gains")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "check --scenario DEEP", "synth --scenario DEEP",
    "simulate --scenario DEEP", "simulate --scenario BASIC --profile DEEP",
    "simulate --scenario BASIC --gain DEEP",
    "simulate --chain-spec CHAIN --gains DEEP",
    "simulate --chain-spec DEEP --gains DEEP", "chain --spec DEEP",
])
def test_deeply_nested_json_exits_2_naming_the_file(basic_file, tmp_path,
                                                    capsys, argv):
    """A JSON input nested deeper than the parser reads exits 2 with one
    line that names the file; it raised a RecursionError, exit 1."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    files = {"DEEP": deep, "BASIC": basic_file,
             "CHAIN": write_json(tmp_path / "chain.json",
                                 chain_to_json_dict(CHAIN_SPEC))}
    out = tmp_path / "run"
    assert main([str(files.get(tok, tok)) for tok in argv.split()]
                + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"
    assert not out.exists()


def test_simulate_profile_names_a_missing_signal(basic_file, tmp_path,
                                                 capsys):
    """A profile without "omega" exits 2 with a line that names it."""
    profile = write_json(tmp_path / "profile.json",
                         {"v": PROFILE_JSON["basic"]["v"]})
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(basic_file), "--profile",
                 str(profile), "--horizon", "1.0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: profile needs signals 'v' and 'omega'; " \
                  "'omega' is missing\n"
    assert not out.exists()


def test_simulate_names_a_random_hold_too_small_for_the_run(basic_file,
                                                            tmp_path, capsys):
    """A random hold so small that ``t / hold`` overflows exits 2 with one
    line that names the hold, not an OverflowError traceback."""
    profile = write_json(tmp_path / "profile.json", {
        "v": {"type": "random", "amplitude": 0.01, "hold": 1e-320},
        "omega": {"type": "constant", "value": 0.0}})
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(basic_file), "--profile",
                 str(profile), "--horizon", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: random profile hold 1e-320 is too small"), err
    assert err.count("\n") == 1
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


@pytest.mark.parametrize("flag, index", [
    ("--eliminate", "5"), ("--eliminate", "-1"), ("--eliminate", "0,2"),
    ("--keep", "7"),
])
def test_fme_out_of_range_index_exits_2(tmp_path, capsys, flag, index):
    path = tmp_path / "sys.txt"
    path.write_text("1 0 <= 2\n-1 0 <= -1\n1 1 <= 3\n")
    out = tmp_path / "projected.txt"
    assert main(["fme", "--input", str(path), flag, index,
                 "--out", str(out)]) == 2
    assert "contains an out-of-range variable index" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, indices, token", [
    ("--keep", "a", "a"), ("--eliminate", "1,,2", ""), ("--keep", "0,1.5", "1.5"),
])
def test_fme_index_lists_name_the_option_and_the_token(tmp_path, capsys, flag,
                                                       indices, token):
    """A token of --eliminate or --keep that is not an integer exits 2 with
    one line that names the option and the token, not int()'s message."""
    out = tmp_path / "projected.txt"
    assert main(["fme", "--input", str(DATA / "basic_polytope.txt"), flag,
                 indices, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} takes variable indices separated by commas, "
        f"not {token!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("text, code, feasible", [
    ("1 1 <= 1\n-1 -1 <= 0\n", 0, True), ("1 1 <= 0\n-1 -1 <= -1\n", 1, False),
], ids=["feasible", "empty"])
def test_fme_decides_a_system_whose_normals_have_rank_1(tmp_path, capsys, text,
                                                       code, feasible):
    """``fme --eliminate ""`` keeps both variables of a system whose normals
    have rank 1, so the exact LP decides it below full rank: ``x + y`` in
    ``[0, 1]`` is feasible, ``x + y`` in ``[1, 0]`` is not."""
    path = tmp_path / "sys.txt"
    path.write_text(text)
    assert main(["fme", "--input", str(path), "--eliminate", ""]) == code
    captured = capsys.readouterr()
    assert captured.err == f"feasible: {feasible}\n"
    assert captured.out == LinearInequalitySystem.from_text(text).to_text()


@pytest.mark.parametrize("flag", ["--eliminate", "--keep"])
def test_fme_empty_index_list(tmp_path, capsys, flag):
    """``--eliminate ""`` eliminates nothing, and ``--keep ""`` keeps
    nothing."""
    path = tmp_path / "sys.txt"
    path.write_text("1 0 <= 2\n-1 0 <= -1\n1 1 <= 3\n")
    out = tmp_path / "projected.txt"
    assert main(["fme", "--input", str(path), flag, "",
                 "--out", str(out)]) == 0
    want = (LinearInequalitySystem.from_text(path.read_text())
            .project([0, 1] if flag == "--eliminate" else []))
    assert out.read_text() == want.to_text()
    assert ("1 0 <= 2" in out.read_text()) == (flag == "--eliminate")


def test_fme_eliminate_and_keep_together_exit_2(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("1 0 <= 2\n-1 0 <= -1\n1 1 <= 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["fme", "--input", str(path), "--eliminate", "0", "--keep", "0"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_fme_matches_check_on_polytope_dump(basic_file, tmp_path):
    gain_out = tmp_path / "gain.json"
    dump = tmp_path / "poly.txt"
    assert main(["synth", "--scenario", str(basic_file),
                 "--out", str(gain_out), "--dump-polytope", str(dump)]) == 0
    assert main(["fme", "--input", str(dump), "--eliminate", "0,1,2",
                 "--out", str(tmp_path / "proj.txt")]) == 0


def test_text_outputs_make_their_parent_directory(basic_file, tmp_path):
    """`synth --dump-polytope` and `fme --out` make a missing parent
    directory, as every --out of a JSON file does, and write the bytes
    they write to an existing one."""
    gain = tmp_path / "new" / "dir" / "gain.json"
    dump = tmp_path / "other" / "dir" / "poly.txt"
    assert main(["synth", "--scenario", str(basic_file), "--out", str(gain),
                 "--dump-polytope", str(dump)]) == 0
    assert gain.read_bytes() == (DATA / "basic_gain.json").read_bytes()
    assert dump.read_bytes() == (DATA / "basic_polytope.txt").read_bytes()
    kept = tmp_path / "x" / "y" / "kept.txt"
    assert main(["fme", "--input", str(DATA / "basic_polytope.txt"),
                 "--keep", "0,1,2", "--out", str(kept)]) == 0
    assert kept.read_bytes() == (DATA / "basic_polytope.txt").read_bytes()


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
            "--s0", ",".join(repr(x) for x in BUNDLES[name].s0),
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
                                     "exact": True}
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


def test_simulate_without_gain_runs_the_synth_gain(demo_out, tmp_path,
                                                   monkeypatch):
    """Without --gain a pair runs the gain synth reports, from synth's own
    pipeline: the trace and the violations are the bundle's, byte for byte,
    and each run reduces its polytope once, as synth does."""
    reduced = []
    reduce = LinearInequalitySystem.reduce

    def counted(self):
        reduced.append(len(self))
        return reduce(self)

    monkeypatch.setattr(LinearInequalitySystem, "reduce", counted)
    names = ("basic", "ubb", "circle")
    for name in names:
        src, mine = demo_out / name, tmp_path / name
        noise = BUNDLES[name].noise_amplitude
        assert main([
            "simulate", "--scenario", str(src / "scenario.json"),
            "--profile", str(src / "profile.json"),
            "--s0", ",".join(repr(x) for x in BUNDLES[name].s0),
            "--horizon", "2.0", "--seed", "3", "--out", str(mine),
        ] + ([] if noise is None else ["--noise-amplitude", repr(noise)])) == 0
        for f in ("violations.json", "trace.csv"):
            assert (mine / f).read_bytes() == (src / f).read_bytes(), (name, f)
    assert reduced == [len(BUNDLES[name].scenario.polytope()) for name in names]


def test_simulate_without_gain_on_an_empty_polytope_exits_1(tmp_path,
                                                            capsys):
    """An empty gain polytope ends a simulate with no --gain as it ends
    synth: exit 1 with synth's one stderr line, and no run."""
    empty = {**scenario_to_json_dict(BASIC_SCENARIO), "Omega_L": 0.27}
    path = write_json(tmp_path / "empty.json", empty)
    out = tmp_path / "run"
    assert main(["synth", "--scenario", str(path)]) == 1
    synth = capsys.readouterr()
    assert main(["simulate", "--scenario", str(path), "--horizon", "0.1",
                 "--out", str(out)]) == 1
    simulated = capsys.readouterr()
    assert simulated == synth
    assert synth.err.splitlines()[-1] == "gain polytope is empty"
    assert synth.out == ""
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("case", ["empty polytope", "missing profile",
                                  "missing chain gains"])
def test_simulate_makes_no_out_dir_when_it_ends_before_the_run(
        basic_file, tmp_path, case):
    """A simulate that ends before it has a trace, on an empty gain
    polytope (exit 1) or a missing input file (exit 2), leaves no --out
    directory behind; a clean run into it then writes the run's files."""
    out = tmp_path / "runs" / "run"
    if case == "empty polytope":
        empty = {**scenario_to_json_dict(BASIC_SCENARIO), "Omega_L": 0.27}
        argv = ["--scenario", str(write_json(tmp_path / "empty.json", empty))]
        code = 1
    elif case == "missing profile":
        argv = ["--scenario", str(basic_file),
                "--profile", str(tmp_path / "missing.json")]
        code = 2
    else:
        spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
        argv = ["--chain-spec", str(spec),
                "--gains", str(tmp_path / "missing.json")]
        code = 2
    assert main(["simulate", *argv, "--horizon", "0.1", "--out", str(out)]) == code
    assert not (tmp_path / "runs").exists()
    assert main(["simulate", "--scenario", str(basic_file), "--horizon", "0.1",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["trace.csv",
                                                     "violations.json"]


@pytest.mark.parametrize("name", ["basic", "ubb", "circle"])
def test_synth_builds_the_uncertain_system_once(name, tmp_path, monkeypatch):
    """One synth rationalizes its scenario's constants once and builds its
    uncertain system once, for the polytope, both certificates and the
    rationalization record, through its family's builder: basic and ubb
    share the box-window body, so ubb builds no basic system besides its
    own.  The rationalization is counted where cli calls it and where a
    build_*_system function would."""
    calls = []
    for module, fn in ((scenarios, "build_basic_system"),
                       (scenarios, "build_ubb_system"),
                       (scenarios, "build_circle_system"),
                       (scenarios, "exact_constants"),
                       (cli, "exact_constants")):
        def counted(sc, *args, _fn=getattr(module, fn), _name=fn):
            calls.append(_name)
            return _fn(sc, *args)
        monkeypatch.setattr(module, fn, counted)
    path = tmp_path / "scenario.json"
    save_scenario(BUNDLES[name].scenario, path)
    assert main(["synth", "--scenario", str(path),
                 "--out", str(tmp_path / "gain.json")]) == 0
    built = {"basic": ["build_basic_system"], "circle": ["build_circle_system"],
             "ubb": ["build_ubb_system"]}[name]
    assert sorted(calls) == sorted(built + ["exact_constants"]), calls


@pytest.mark.parametrize("name", ["basic", "ubb", "circle"])
def test_synth_builds_the_certificate_rows_once(name, tmp_path, monkeypatch):
    """The gain polytope and the cone certificate of one synth read the
    same cached rows of its system, so the window faces are shifted by one
    shifted_cone call; a basic check, whose exact projection builds the
    polytope alone, makes one as well."""
    calls = []

    def counted(*args, _fn=systems.shifted_cone):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(systems, "shifted_cone", counted)
    path = tmp_path / "scenario.json"
    save_scenario(BUNDLES[name].scenario, path)
    assert main(["synth", "--scenario", str(path),
                 "--out", str(tmp_path / "gain.json")]) == 0
    assert len(calls) == 1
    if name == "basic":
        calls.clear()
        assert main(["check", "--scenario", str(path),
                     "--out", str(tmp_path / "check.json")]) == 0
        assert len(calls) == 1


@pytest.mark.parametrize("name", ["basic", "ubb", "circle"])
def test_commands_build_no_fraction_row_they_do_not_write(name, tmp_path,
                                                         monkeypatch):
    """`check` and `synth` decide, reduce and certify on integer rows, so
    no polytope they make builds its Fraction rows; --dump-polytope builds
    those of the reduced polytope it writes, and of no other."""
    made = []
    keyed = LinearInequalitySystem._keyed.__func__

    def recorded(cls, *args, **kwargs):
        made.append(keyed(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(LinearInequalitySystem, "_keyed", classmethod(recorded))
    path = tmp_path / "scenario.json"
    save_scenario(BUNDLES[name].scenario, path)
    for cmd in ("check", "synth"):
        assert main([cmd, "--scenario", str(path),
                     "--out", str(tmp_path / f"{cmd}.json")]) == 0
    assert made and not [p for p in made if "rows" in vars(p)]
    made.clear()
    dump = tmp_path / "poly.txt"
    assert main(["synth", "--scenario", str(path), "--out",
                 str(tmp_path / "gain.json"), "--dump-polytope", str(dump)]) == 0
    built = [p for p in made if "rows" in vars(p)]
    assert len(made) == 2 and len(built) == 1
    assert built[0].to_text() == dump.read_text()


@pytest.mark.parametrize("name, field, value", [
    ("basic", "b", 1e-14), ("basic", "a", 1e-13), ("circle", "a", 1e-14),
    ("ubb", "V_L", 1e-14), ("circle", "V_L", 1e-14),
    ("circle", "Omega_L", 1e-14), ("ubb", "H_F", 1e-14),
])
def test_constant_that_rationalizes_to_zero_exits_2(name, field, value,
                                                     tmp_path, capsys):
    """A constant the scenario must have positive, so small that it
    rationalizes to 0, is an input error that names it: exit 2 from synth
    and from a basic check, whose exact projection builds the same system,
    in place of a ZeroDivisionError or a message about the face offsets.
    A circle or ubb check stays the float closed-form test.  A disturbance
    amplitude may be 0, so one that rationalizes to 0 is no error: synth
    exits 0 and records it as 0."""
    sc = {**scenario_to_json_dict(BUNDLES[name].scenario), field: value}
    path = write_json(tmp_path / "tiny.json", sc)
    for command in ["synth", "check"] if name == "basic" else ["synth"]:
        out = tmp_path / f"{command}.json"
        code = main([command, "--scenario", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        if field == "H_F":
            assert code == 0, err
            assert json.loads(out.read_text())["rationalization"][field] == "0"
            continue
        assert code == 2
        assert f"error: {field} = {value!r} rationalizes to 0, but {field} " \
               "must be positive" in err, err
        assert "Traceback" not in err
        assert not out.exists()


WIDE_CIRCLE = {"type": "circle", "a": 0.1, "b": 1.0, "gamma": 0.2, "rho": 0.1,
               "V_F": 0.9, "V_L": 0.1, "Omega_F": 1.0, "Omega_L": 0.05}


@pytest.mark.parametrize("command", ["check", "synth", "simulate"])
def test_circle_window_whose_parameter_box_misses_the_origin_exits_2(
        command, tmp_path, capsys):
    """b = 1 is more than twice gamma = 0.2, so q1 and q5 range below 0:
    the scenario is rejected when it is loaded, with both intervals named,
    where check called it feasible and synth and simulate warned, then
    ended on 'Q must contain the origin'."""
    path = write_json(tmp_path / "wide.json", WIDE_CIRCLE)
    out = tmp_path / "out"
    argv = [command, "--scenario", str(path), "--out", str(out)]
    assert main(argv + (["--horizon", "0.1"] if command == "simulate" else [])) == 2
    err = capsys.readouterr().err
    assert err == ("error: parameter box Q misses the origin: q1 ranges over "
                   "[-0.246697, -0.0640412], q5 ranges over [-0.617709, "
                   "-0.28336]; the orbit window needs b <= 2 * gamma\n")
    assert not out.exists()


GAIN = {"k11": 1.5173, "k22": 0.3707, "k23": 0.4925}
V = PROFILE_JSON["basic"]["v"]


@pytest.mark.parametrize("command, gain, v, edit", [
    ("simulate", {**GAIN, "k11": math.nan}, V, None),
    ("simulate", GAIN, {"type": "constant", "value": math.nan}, None),
    ("simulate", {**GAIN, "k11": None}, V, None),
    ("simulate", {**GAIN, "k11": [1.5173]}, V, None),
    ("simulate", GAIN, {"type": "constant", "value": None}, None),
    ("simulate", GAIN, {"type": "sin", "amplitude": "x", "omega": 1}, None),
    ("simulate", GAIN, {"type": "sin", "amplitude": 0.01, "omega": [1]}, None),
    ("simulate", GAIN,
     {"type": "cos", "amplitude": 0.01, "omega": 1, "phase": None}, None),
    ("simulate", GAIN, {"type": "random", "amplitude": 0.01, "hold": None},
     None),
    ("simulate", GAIN,
     {"type": "random", "amplitude": 0.01, "hold": 0.5, "seed": 1.5}, None),
    ("simulate", GAIN, {"type": "sum", "terms": 3}, None),
    ("simulate", GAIN, {"type": "constant", "value": 10**401}, None),
    ("simulate", GAIN, {"type": "constant", "value": [0.0] * 3000}, None),
    ("simulate", list(range(3000)), V, None),
    ("simulate", GAIN, list(range(3000)), None),
    ("check", GAIN, V, {"Omega_F": math.inf}),
    ("synth", GAIN, V, {"Omega_F": math.inf}),
    ("check", GAIN, V, {"a": 10**401}),
    ("synth", GAIN, V, {"a": 10**401}),
    ("chain", GAIN, V, {"a": 10**401}),
    ("check", GAIN, V, {"a": True}),
    ("chain", GAIN, V, {"a": True}),
    ("check", GAIN, V, {"type": list(range(3000))}),
    ("check", GAIN, V, {"x" * 3000: 1.0}),
], ids=["gain", "profile", "null-gain", "list-gain", "null-value",
        "text-amplitude", "list-omega", "null-phase", "null-hold",
        "float-seed", "int-terms", "huge-int-value", "long-list-value",
        "long-list-gain", "long-list-signal", "inf-scenario-check",
        "inf-scenario-synth", "huge-int-scenario-check",
        "huge-int-scenario-synth", "huge-int-chain", "bool-scenario",
        "bool-chain", "long-list-type", "long-field-name"])
def test_simulate_rejects_non_finite_input(basic_file, tmp_path, capsys,
                                           command, gain, v, edit):
    """A value that is not a finite JSON number, in a gain, a profile, a
    scenario (edited into the basic one, for check and synth) or a chain
    spec (edited into its first link), exits 2 with a bounded message."""
    out = tmp_path / "run"
    if command == "simulate":
        gain_file = write_json(tmp_path / "gain.json", gain)
        profile = write_json(tmp_path / "profile.json",
                             {"v": v, "omega": PROFILE_JSON["basic"]["omega"]})
        argv = ["simulate", "--scenario", str(basic_file),
                "--gain", str(gain_file), "--profile", str(profile),
                "--horizon", "1.0", "--out", str(out)]
    elif command == "chain":
        spec = chain_to_json_dict(CHAIN_SPEC)
        spec["links"][0].update(edit)
        argv = ["chain", "--spec", str(write_json(tmp_path / "chain.json", spec)),
                "--out", str(out / "chain.json")]
    else:
        sc = {**scenario_to_json_dict(BASIC_SCENARIO), **edit}
        argv = [command, "--scenario",
                str(write_json(tmp_path / "scenario.json", sc)),
                "--out", str(out / "out.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error" in err
    # a value beyond the float range or a long list is named, not echoed
    assert all(len(line) < 200 for line in err.splitlines()), err[:300]
    assert not (out / "violations.json").exists()
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("gain, message", [
    ({"k11": True, "k22": 0.3707, "k23": 0.4925},
     "gain entry 'k11' must be a finite number, not True"),
    ({"k11": 1.5173, "k22": "1.5", "k23": 0.4925},
     "gain entry 'k22' must be a finite number, not '1.5'"),
    ({"k11": 1.5173, "k22": 0.3707, "k23": 10**400},
     "gain entry 'k23' must be a finite number, not an int of 401 digits"),
    ({"k11": 1.5173, "k22": 0.3707},
     "gain needs the entries 'k11', 'k22' and 'k23'"),
    ([1.5173, 0.3707, 0.4925],
     "gain needs the entries 'k11', 'k22' and 'k23'"),
], ids=["bool", "text", "huge-int", "missing", "list"])
def test_simulate_gain_entries_are_json_numbers(basic_file, tmp_path, capsys,
                                                gain, message):
    """A bool or a string is not a gain entry, though ``float()`` takes
    both; a missing entry is named with the other two."""
    gain_file = write_json(tmp_path / "gain.json", gain)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(basic_file),
                 "--gain", str(gain_file), "--horizon", "1.0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert all(len(line) < 200 for line in err.splitlines()), err[:300]
    assert not (out / "violations.json").exists()


@pytest.mark.parametrize("argv", [
    ["--horizon", "inf"], ["--horizon", "1e400"], ["--horizon", "nan"],
    ["--horizon", "1e300", "--dt", "1e-300"],  # T / dt overflows
], ids=["inf", "1e400", "nan", "1e300/1e-300"])
def test_simulate_rejects_non_finite_horizon(basic_file, tmp_path, capsys,
                                             argv):
    """A horizon, or a step count T / dt, that is not finite exits 2 with
    one error line."""
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(basic_file), *argv,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "finite" in err
    assert not (out / "violations.json").exists()


def test_simulate_tol_is_a_usage_error(basic_file, tmp_path, capsys):
    """The monitor judges every sample against one tolerance, BOUND_TOL:
    ``simulate --tol`` is gone, and passing it is a usage error."""
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(basic_file), "--tol", "1e-9",
              "--horizon", "0.1", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("s0", ["nan,0,0", "0,0,nan"])
def test_simulate_rejects_nan_start(basic_file, tmp_path, capsys, s0):
    assert main(["simulate", "--scenario", str(basic_file), "--s0", s0,
                 "--horizon", "1.0", "--out", str(tmp_path / "x")]) == 2
    assert "s0 lies outside the visibility window" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["basic", "chain"])
def test_option_value_may_start_with_a_minus(tmp_path, capsys, family):
    """``--s0 -0.1,0,0`` runs as ``--s0=-0.1,0,0`` does: argparse alone
    reads a value that starts with ``-`` as an unknown option."""
    if family == "chain":
        spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
        gains = write_json(tmp_path / "gains.json", [
            {"k11": 0.2066, "k22": 0.0315, "k23": 0.3361},
            {"k11": 0.5087, "k22": 0.0669, "k23": 0.3400},
            {"k11": 1.7273, "k22": 0.2678, "k23": 0.3348},
        ])
        argv = ["--chain-spec", str(spec), "--gains", str(gains)]
        s0 = "-0.1,0,0;0,0,0;0,0,0"
    else:
        save_scenario(BASIC_SCENARIO, tmp_path / "basic.json")
        argv = ["--scenario", str(tmp_path / "basic.json")]
        s0 = "-0.1,0,0"
    runs = []
    for name, given in (("spaced", ["--s0", s0]), ("joined", [f"--s0={s0}"])):
        out = tmp_path / name
        code = main(["simulate", *argv, *given, "--horizon", "1",
                     "--out", str(out)])
        runs.append((code, capsys.readouterr().err,
                     {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "violations.json" in runs[0][2]


def test_simulate_rejects_nan_chain_start(tmp_path, capsys):
    spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
    gains = write_json(tmp_path / "gains.json",
                       [{"k11": 0.2, "k22": 0.03, "k23": 0.3}] * 3)
    assert main(["simulate", "--chain-spec", str(spec), "--gains", str(gains),
                 "--s0", "0,0,0;0,nan,0;0,0,0", "--horizon", "1.0",
                 "--out", str(tmp_path / "x")]) == 2
    assert "s0[1] lies outside" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "synth"])
def test_infeasible_scenario_writes_no_warning(tmp_path, capsys, command):
    """A scenario that fails the closed-form conditions is a verdict, which
    check and synth state in their exit code and output; neither writes a
    ``warning:`` line."""
    sc = scenario_to_json_dict(BASIC_SCENARIO)
    sc["Omega_L"] = 0.27
    path = write_json(tmp_path / "bad.json", sc)
    assert main([command, "--scenario", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert not any(line.startswith("warning:") for line in err.splitlines())
    assert err.splitlines() == (["infeasible: leader_turn_rate"]
                                if command == "check"
                                else ["gain polytope is empty"])


def test_simulate_dt_must_divide_the_noise_hold(tmp_path, capsys):
    """A ubb run's noise holds each value for NOISE_HOLD, so a step that
    does not divide it is an input error that names both values."""
    path = tmp_path / "scenario.json"
    save_scenario(BUNDLES["ubb"].scenario, path)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(path), "--dt", "0.03",
                 "--horizon", "0.3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "dt=0.03 does not divide the noise hold 0.1 s" in err, err
    assert not out.exists()



@pytest.mark.parametrize("argv", [["--dt", "0.04", "--horizon", "2"],
                                  ["--dt", "0"], ["--horizon", "nan"],
                                  ["--horizon", "0.015"],
                                  ["--horizon", "1e300", "--dt", "1e-300"]])
def test_demo_checks_step_and_horizon_before_writing(tmp_path, capsys, argv):
    """A step or horizon that a run would reject, a step that does not
    divide the ubb noise hold included, ends the demo before it writes
    anything: exit 2, one error line and no --out directory."""
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not out.exists()


def test_simulate_and_demo_share_one_step():
    parser = build_parser()
    for argv in (["simulate"], ["demo"]):
        assert parser.parse_args(argv).dt == DEFAULT_DT


def test_simulate_and_demo_share_one_horizon():
    parser = build_parser()
    for argv in (["simulate"], ["demo"]):
        assert parser.parse_args(argv).horizon == DEFAULT_HORIZON


@pytest.mark.parametrize("family, omega, horizon", [
    ("basic", 0.2, 60.0), ("chain", 0.05, 80.0),
])
def test_heading_wrap_is_a_violated_run(tmp_path, capsys, family, omega,
                                        horizon):
    """With zero gains the follower never turns, so a leader that turns at
    a constant rate drives the heading difference past pi: the wrap guard
    ends the run with exit 1, a violated run, not 2, bad input, and the
    line that names the link and the time.  The run still writes its
    files: each trace CSV up to the last sample before the wrap, byte for
    byte the CSV of a run that stops there, and a violations.json that
    names the link and time of the wrap as ``heading_wrap``, with no
    integration error."""
    profile = write_json(tmp_path / "prof.json", {
        "v": {"type": "constant", "value": 0.0},
        "omega": {"type": "constant", "value": omega}})
    zero = {"k11": 0, "k22": 0, "k23": 0}
    if family == "chain":
        spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
        gains = write_json(tmp_path / "gains.json", [zero] * 3)
        argv = ["--chain-spec", str(spec), "--gains", str(gains)]
        names = [f"trace_link{k}.csv" for k in range(1, CHAIN_SPEC.n)]
    else:
        save_scenario(BASIC_SCENARIO, tmp_path / "basic.json")
        gain = write_json(tmp_path / "gain.json", zero)
        argv = ["--scenario", str(tmp_path / "basic.json"), "--gain", str(gain)]
        names = ["trace.csv"]
    argv += ["--profile", str(profile)]
    run = tmp_path / "run"
    assert main(["simulate", *argv, "--horizon", str(horizon),
                 "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("heading difference left (-pi, pi) on link 1 at t="), err
    assert err.endswith("; invariance lost\n") and len(err.splitlines()) == 1
    report = json.loads((run / "violations.json").read_text())
    wrap = report.pop("heading_wrap")
    assert wrap["link"] == 1 and f"at t={wrap['t']:.6g};" in err
    reports = report["links"] if family == "chain" else [report]
    assert len(reports) == len(names)
    assert all("integration_error" not in r for r in reports)
    assert not reports[0]["clean"]
    steps = round(wrap["t"] / DEFAULT_DT) - 1  # the last sample kept
    short = tmp_path / "short"
    assert main(["simulate", *argv, "--horizon", repr(steps * DEFAULT_DT),
                 "--out", str(short)]) == 1  # a violated run, to the end
    for name in names:
        assert (run / name).read_bytes() == (short / name).read_bytes(), name


def _run_reports(out):
    """The six run reports of a demo in `out`: each pair's violations.json
    and each chain link's report."""
    reports = [json.loads((out / name / "violations.json").read_text())
               for name in ("basic", "ubb", "circle")]
    reports += json.loads((out / "chain" / "violations.json").read_text())["links"]
    assert len(reports) == 6
    return reports


def test_violations_report_the_integration_error(demo_out):
    """Every pair's violations.json and every chain link's report carry a
    step-doubling integration_error, below the demo's error target."""
    for report in _run_reports(demo_out):
        assert 0.0 < report["integration_error"] < ERROR_TARGET, report


@pytest.mark.parametrize("family", ["basic", "circle", "chain"])
def test_noise_amplitude_only_for_ubb(tmp_path, capsys, family):
    sc = BUNDLES[family].scenario
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


@pytest.mark.parametrize("amp", ["-0.05", "-0.0001", "nan", "inf", "-inf",
                                 "-nan"])
def test_noise_amplitude_must_be_finite_and_nonnegative(tmp_path, capsys, amp):
    """A ubb run rejects a negative or non-finite amplitude before it runs,
    naming the value, with the message uniform_noise raises, whether the
    value is joined to the option or follows it."""
    path = tmp_path / "scenario.json"
    save_scenario(BUNDLES["ubb"].scenario, path)
    out = tmp_path / "run"
    message = f"noise amplitude must be a finite number >= 0, not {float(amp)!r}"
    for given in ([f"--noise-amplitude={amp}"], ["--noise-amplitude", amp]):
        assert main(["simulate", "--scenario", str(path), *given,
                     "--horizon", "0.1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", err
        assert not out.exists()
    with pytest.raises(ValueError) as exc:
        simulate.uniform_noise(0.0, float(amp))
    assert str(exc.value) == message


@pytest.mark.parametrize("family", ["basic", "chain"])
def test_gain_flag_of_the_other_mode_exits_2(tmp_path, capsys, family):
    sc = BUNDLES[family].scenario
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


@pytest.mark.parametrize("argv, message", [
    (["chain"], "nothing to do: pass --spec, --generate or --maps"),
    (["simulate", "--chain-spec", "CHAIN", "--horizon", "0.1"],
     "chain simulation needs --gains"),
    (["simulate", "--scenario", "BASIC", "--gain", "GAIN", "--s0", "0.1,0",
      "--horizon", "0.1"], "s0 must have three components"),
    (["simulate", "--scenario", "BASIC", "--gain", "GAIN", "--profile",
      "PROFILE", "--horizon", "0.1"], "unknown profile type 'triangle'"),
], ids=["chain-nothing-to-do", "chain-without-gains", "s0-two-numbers",
        "unknown-profile-type"])
def test_commands_name_an_input_fault_and_write_nothing(
        basic_file, tmp_path, capsys, argv, message):
    """A command with nothing to do, a chain run without gains, a start
    that is not three numbers and a profile signal of no known type each
    exit 2 with one line that names the fault, and write nothing."""
    files = {"BASIC": basic_file,
             "CHAIN": write_json(tmp_path / "chain.json",
                                 chain_to_json_dict(CHAIN_SPEC)),
             "GAIN": write_json(tmp_path / "gain.json", GAIN),
             "PROFILE": write_json(tmp_path / "profile.json", {
                 "v": {"type": "triangle"},
                 "omega": PROFILE_JSON["basic"]["omega"]})}
    out = tmp_path / "out"
    assert main([str(files.get(tok, tok)) for tok in argv]
                + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("family, edit, message", [
    ("ubb", {"H_F": -0.1}, "H_F and H_L must be nonnegative"),
    ("circle", {"a": -0.1}, "a must be positive"),
    ("circle", {"gamma": 0.0}, "gamma must lie in (0, pi/2)"),
    ("circle", {"gamma": math.pi / 2}, "gamma must lie in (0, pi/2)"),
    ("circle", {"rho": 0.0}, "rho must be positive"),
    ("circle", {"b": 0.5}, "b must be at least gamma"),
    ("circle", {"V_F": 1.0}, "V_F must lie in (0, 1)"),
    ("circle", {"V_L": 0.0}, "V_L must lie in (0, 1)"),
    ("circle", {"Omega_F": 0.0}, "Omega_F must be positive"),
], ids=["ubb-negative-H_F", "circle-a", "circle-gamma-0", "circle-gamma-pi/2",
        "circle-rho", "circle-b-below-gamma", "circle-V_F", "circle-V_L",
        "circle-Omega_F"])
def test_scenario_out_of_range_names_the_field(tmp_path, capsys, family, edit,
                                               message):
    """A bundle scenario with one field edited out of its range exits 2
    from check with one line that names the field, and writes nothing."""
    sc = {**scenario_to_json_dict(BUNDLES[family].scenario), **edit}
    out = tmp_path / "check.json"
    assert main(["check", "--scenario",
                 str(write_json(tmp_path / "scenario.json", sc)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_chain_generate_past_its_length_exits_1(tmp_path, capsys):
    """A schedule longer than the geometry sustains is a verdict: exit 1
    with the one line that says how many robots fit, and no file."""
    out = tmp_path / "generated.json"
    assert main(["chain", "--generate", "a=0.1,d=7,n=60,V1=0.02",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "no feasible schedule at the requested length; achievable prefix: "
        "16 robots (robot 16 sandwich closes)\n")
    assert not out.exists()


def test_run_too_large_to_allocate_exits_2(basic_file, tmp_path, capsys,
                                           monkeypatch):
    """A run whose arrays cannot be allocated is an input error: exit 2
    with one error line, no traceback and no violations.json."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 671. GiB")

    monkeypatch.setattr(simulate, "_integrate", out_of_memory)
    gain = write_json(tmp_path / "gain.json", GAIN)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(basic_file), "--gain",
                 str(gain), "--horizon", "0.1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 671. GiB\n"
    assert "Traceback" not in err
    assert not (out / "violations.json").exists()


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
    byte as recorded in tests/data; `fme --keep 0,1,2` reads that text into
    the system's integer rows and writes it back unchanged."""
    path = tmp_path / "scenario.json"
    save_scenario(BUNDLES[name].scenario, path)
    gain, dump = tmp_path / "gain.json", tmp_path / "poly.txt"
    assert main(["synth", "--scenario", str(path), "--out", str(gain),
                 "--dump-polytope", str(dump)]) == 0
    recorded = (DATA / f"{name}_polytope.txt").read_bytes()
    assert gain.read_bytes() == (DATA / f"{name}_gain.json").read_bytes()
    assert dump.read_bytes() == recorded
    kept = tmp_path / "kept.txt"
    assert main(["fme", "--input", str(DATA / f"{name}_polytope.txt"),
                 "--keep", "0,1,2", "--out", str(kept)]) == 0
    assert kept.read_bytes() == recorded


@pytest.fixture(scope="module")
def demo_seed0(tmp_path_factory):
    """A full-horizon ``demo --seed 0``, the run the README tabulates."""
    out = tmp_path_factory.mktemp("demo_seed0")
    assert main(["demo", "--seed", "0", "--out", str(out)]) == 0
    return out


def test_demo_seed0_traces_hash_as_recorded(demo_seed0):
    """The six trace CSVs of a full-horizon ``demo --seed 0`` hash as
    tests/data/demo_seed0_csv.sha256 records (``sha256sum -c`` reads the
    same file), which pins the integrator, the profiles and the CSV writer
    byte for byte."""
    recorded = dict(reversed(line.split()) for line in
                    (DATA / "demo_seed0_csv.sha256").read_text().splitlines())
    traces = sorted(p.relative_to(demo_seed0).as_posix()
                    for p in demo_seed0.glob("*/*.csv"))
    assert traces == sorted(recorded)
    got = {name: hashlib.sha256((demo_seed0 / name).read_bytes()).hexdigest()
           for name in traces}
    assert got == recorded, (
        "the pinned trace bytes assume that NumPy's float64 sin and cos "
        "round as math's do: the RK4 loop calls math's, and robot 0's world "
        "pose, each follower's placement and the sinusoid profiles call "
        "NumPy's, so a NumPy build that rounds them otherwise moves these "
        "bytes")


def test_demo_seed0_integration_errors_meet_the_target(demo_seed0):
    """Every run of a full-horizon ``demo --seed 0``, each chain link's
    included, estimates its integration error below demos.ERROR_TARGET, as
    the README states for DEFAULT_DT."""
    for report in _run_reports(demo_seed0):
        assert 0.0 < report["integration_error"] < ERROR_TARGET, report


# The README's input file names, and the bundled file each stands for.  The
# chain bundle's leader profile lies within the basic pair's bounds too.
_README_FILES = {
    "sc.json": "basic/scenario.json", "prof.json": "chain/profile.json",
    "gain.json": "basic/gain.json", "chain.json": "chain/scenario.json",
    "gains.json": "chain/gains.json",
}


def test_readme_command_lines_run(demo_seed0, tmp_path, monkeypatch):
    """Each line of the README's command block, its continuations joined,
    exits 0 on the bundled files it names, so a flag that the command line
    renames or drops fails here."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    for name, bundled in _README_FILES.items():
        shutil.copy(demo_seed0 / bundled, tmp_path / name)
    shutil.copy(DATA / "basic_polytope.txt", tmp_path / "system.txt")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in lines]
    assert {argv[1] for argv in commands} == {"demo", "check", "synth",
                                              "simulate", "chain", "fme"}
    for line, (prog, *argv) in zip(lines, commands):
        assert prog == "viskeep" and main(argv) == 0, line


@pytest.mark.parametrize("save, obj", [(save_scenario, BASIC_SCENARIO),
                                       (save_chain, CHAIN_SPEC)])
def test_saved_json_makes_its_parent_directory(tmp_path, save, obj):
    """save_scenario and save_chain write through the package's one JSON
    writer: the parent directory is made if missing, and the bytes are the
    writer's, indented and key-sorted with a final newline."""
    path = tmp_path / "missing" / "deeper" / "out.json"
    save(obj, path)
    data = json.loads(path.read_text())
    assert path.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"


def _readme_code_names(readme: str, modules: set) -> list[str]:
    """Each dotted name inside a backtick span of `readme` whose head is
    ``viskeep`` or one of `modules`, in order."""
    heads = "|".join(sorted(modules | {"viskeep"}))
    name = re.compile(rf"(?<![\w./])(?:{heads})(?:\.\w+)+")
    return [m.group() for span in re.findall(r"`([^`\n]+)`", readme)
            for m in name.finditer(span)]


def _resolves(name: str) -> bool:
    """True if `name`, with or without its ``viskeep.`` head, is an
    attribute or submodule of the package."""
    parts = name.split(".")
    obj, path = importlib.import_module("viskeep"), "viskeep"
    for part in parts[1:] if parts[0] == "viskeep" else parts:
        path += "." + part
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(path)
        except ImportError:
            return False
    return True


def test_readme_names_what_exists():
    """Every code name the README gives is real: each backticked dotted name
    headed by ``viskeep`` or a package module is a package attribute, a
    BENCHMARK.json metric or a file of the package, and each
    ``tests/FILE::name`` reference names a test of that file."""
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text()
    package = Path(cli.__file__).parent
    files = {p.name for p in package.glob("*.py")}
    modules = {name[:-3] for name in files} - {"__init__"}
    bench = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = _readme_code_names(readme, modules)
    assert names
    stale = [name for name in names
             if name not in metrics and name not in files and not _resolves(name)]
    assert stale == []
    refs = re.findall(r"tests/([\w/]+\.py)::(\w+)", readme)
    assert refs
    missing = [f"{file}::{test}" for file, test in refs
               if not (root / "tests" / file).exists() or not re.search(
                   rf"^def {test}\(", (root / "tests" / file).read_text(), re.M)]
    assert missing == []


@pytest.mark.parametrize("name, argv", [
    ("chain_demo_closed", ["--spec", "SPEC", "--closed"]),
    ("chain_generated", ["--generate", "a=0.1,d=7,n=6,V1=0.02"]),
])
def test_chain_matches_recorded_bytes(name, argv, tmp_path):
    """The chain JSON of the demo chain with --closed, and of a generated
    six-robot schedule, byte for byte as recorded in tests/data."""
    spec = write_json(tmp_path / "chain.json", chain_to_json_dict(CHAIN_SPEC))
    out = tmp_path / "out.json"
    argv = [str(spec) if tok == "SPEC" else tok for tok in argv]
    assert main(["chain", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()


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


@pytest.mark.parametrize("token, args", [
    ("1e100000000", []), ("1e-100000000", []), ("1e200000", ["--keep", "0"]),
])
def test_fme_huge_exponent_exits_2_as_it_is_read(tmp_path, capsys, token, args):
    """A number past 4300 digits is refused before Fraction expands its
    power of ten: 1e100000000 spent over 20 s there, and 1e200000 ran the
    LP on 664,386-bit integers before its output failed to print."""
    path = tmp_path / "sys.txt"
    path.write_text(f"0 1 <= 1\n1 0 <= {token}\n")
    assert main(["fme", "--input", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert f"error: line 2: '{token}' needs more than 4300 digits" in err


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


def _python(code: str, *args: str) -> str:
    """Stdout of ``python -c code args`` in a fresh interpreter that imports
    this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_exact_layer_imports_no_numpy():
    """The package, the command line and every exact module load without
    numpy; only viskeep.simulate and the linear switching oracle use it."""
    out = _python(
        "import sys\n"
        "import viskeep, viskeep.cli, viskeep.scenarios, viskeep.synthesis\n"
        "import viskeep.chains, viskeep.systems, viskeep.demos, viskeep.profiles\n"
        "print('numpy' in sys.modules, 'viskeep.simulate' in sys.modules)\n")
    assert out.split() == ["False", "False"]


def test_runs_load_no_numpy_random(tmp_path):
    """The linear switching oracle, a noisy ubb run and a demo pass draw
    their random numbers from the random module: numpy is loaded, but
    numpy.random (about 6 MB) is not."""
    out = _python(
        "import sys\n"
        "from viskeep import cli, simulate, systems\n"
        "from viskeep.demos import BUNDLES\n"
        "from viskeep.synthesis import min_norm_gain\n"
        "ubb = BUNDLES['ubb']\n"
        "sc = ubb.scenario\n"
        "K = min_norm_gain(sc.polytope()).gain\n"
        "ok, _ = systems.simulate_linear_switching(sc.system(), K, n_runs=20,\n"
        "                                          horizon=1.0, dt=1e-2)\n"
        "trace = simulate.simulate_scenario(sc, K, ubb.profile, ubb.s0, 1.0, 1e-2,\n"
        "                                   ubb.noise_amplitude, seed=3)\n"
        "assert ok and trace.noise.any()\n"
        "assert cli.main(['demo', '--horizon', '1', '--out', sys.argv[1]]) == 0\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n",
        str(tmp_path / "demo"))
    assert out.split()[-2:] == ["True", "False"]


# Runs each argv list of the JSON argument through cli.main with numpy
# blocked, and prints each exit code and stderr as JSON.
_BLOCKED_RUN = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from viskeep.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        runs.append([main(argv), err.getvalue()])
print(json.dumps(runs))
"""


def test_exact_commands_run_with_numpy_blocked(tmp_path):
    """check, synth, fme and chain --generate reach no numpy at run time:
    with numpy blocked they give the exit codes, stderr and output files
    of a run in this process."""
    empty = scenario_to_json_dict(BASIC_SCENARIO)
    empty["Omega_L"] = 0.27
    files = {"empty.json": json.dumps(empty),
             "two.txt": "1 0 <= 2\n-1 0 <= -1\n1 1 <= 3\n"}
    names = ("basic", "ubb", "circle")
    for name in names:
        files[f"{name}.json"] = json.dumps(scenario_to_json_dict(BUNDLES[name].scenario))

    def commands(root: Path) -> list[list[str]]:
        for file, text in files.items():
            (root / file).write_text(text)
        runs = []
        for name in names:
            scenario = str(root / f"{name}.json")
            runs += [["check", "--scenario", scenario,
                      "--out", str(root / f"{name}_check.json")],
                     ["synth", "--scenario", scenario,
                      "--out", str(root / f"{name}_gain.json"),
                      "--dump-polytope", str(root / f"{name}_poly.txt")]]
        return runs + [
            ["synth", "--scenario", str(root / "empty.json"),
             "--out", str(root / "empty_gain.json")],
            ["fme", "--input", str(root / "two.txt"), "--eliminate", "0",
             "--out", str(root / "projected.txt")],
            ["chain", "--generate", "a=0.4,d=3,n=5,V1=0.1",
             "--out", str(root / "chain.json")],
        ]

    free, blocked = tmp_path / "free", tmp_path / "blocked"
    free.mkdir()
    blocked.mkdir()
    want = []
    for argv in commands(free):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            want.append([main(argv), err.getvalue()])
    got = json.loads(_python(_BLOCKED_RUN, json.dumps(commands(blocked))))
    assert got == want
    assert [code for code, _ in got] == [0] * 6 + [1, 0, 0]
    outputs = sorted(p.name for p in free.iterdir())
    assert outputs == sorted(p.name for p in blocked.iterdir())
    for name in outputs:
        assert (blocked / name).read_bytes() == (free / name).read_bytes(), name
