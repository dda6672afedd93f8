"""The three benchmark workloads: inputs, timed items and output checks.

A workload's ``setup(seed, tmp, size)`` builds its inputs from the seed and
returns a list of :class:`Item`.  ``Item.run`` is the timed call into the
package; ``Item.check`` and ``Item.record`` run outside the timed region.
Every call into the package goes through a module attribute
(``cli.main``, ``simulate.simulate_basic``, ...) so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from viskeep import cli, demos, scenarios, simulate, synthesis, systems
from viskeep.boxes import Box
from viskeep.systems import GainMatrix

import gen


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], list]
    record: Callable[[object], dict]
    cleanup: Callable[[], None] = lambda: None


def _quiet(fn, *args):
    """Call `fn` with the package's console output captured."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _gain_list(gain: dict) -> list:
    return [gain["k11"], gain["k22"], gain["k23"]]


# ----------------------------------------------------------------------
# synth_sweep: `viskeep check` then `viskeep synth` on one scenario file
# ----------------------------------------------------------------------

# (family, closed-form verdict, items per pass).  About a third of the items
# are infeasible: they force the full redundancy removal and the exhaustive
# enumeration to run to the end.  The cheap basic items keep the sample
# count at 22, so the latency tail is a percentile (p55), not one circle.
SYNTH_MIX = (
    ("basic", True, 12), ("basic", False, 6),
    ("ubb", True, 1), ("ubb", False, 1),
    ("circle", True, 1), ("circle", False, 1),
)

POLYTOPE = {
    "basic": scenarios.gain_polytope,
    "ubb": scenarios.gain_polytope_ubb,
    "circle": scenarios.gain_polytope_circle,
}


def _synth_item(idx: int, kind: str, feasible: bool, sc, tmp: Path) -> Item:
    path = tmp / f"scenario{idx:02d}.json"
    scenarios.save_scenario(sc, path)
    out_check = tmp / f"check{idx:02d}.json"
    out_gain = tmp / f"gain{idx:02d}.json"

    def run():
        rc_check = _quiet(cli.main, ["check", "--scenario", str(path),
                                     "--out", str(out_check)])
        rc_synth = _quiet(cli.main, ["synth", "--scenario", str(path),
                                     "--out", str(out_gain)])
        return rc_check, rc_synth

    def check(out):
        rc_check, rc_synth = out
        problems = []
        want = 0 if feasible else 1
        if rc_check != want:
            problems.append(f"check exit {rc_check}, expected {want}")
        if rc_synth != rc_check:
            problems.append(f"synth exit {rc_synth} disagrees with check {rc_check}")
        if kind == "basic" and not _read_json(out_check).get("projection_agrees"):
            problems.append("FME projection disagrees with closed form")
        if rc_synth == 0:
            gain = _read_json(out_gain)
            certs = gain["certificates"]
            if not (certs["admissible"] and certs["invariant"]):
                problems.append(f"certificates {certs}")
            if gain["kkt_residual"] != 0:
                problems.append(f"kkt_residual {gain['kkt_residual']}")
        elif rc_synth == 1:
            if POLYTOPE[kind](sc).is_feasible():
                problems.append("synth exit 1 but the gain polytope is not empty")
        return problems

    def record(out):
        rc_check, rc_synth = out
        gain = _gain_list(_read_json(out_gain)["gain"]) if rc_synth == 0 else None
        return {"check": rc_check, "synth": rc_synth, "gain": gain}

    def cleanup():
        out_check.unlink(missing_ok=True)
        out_gain.unlink(missing_ok=True)

    return Item(f"{idx:02d}-{kind}-{'F' if feasible else 'I'}", run, check,
                record, cleanup)


def setup_synth(seed: int, tmp: Path, size: dict) -> list[Item]:
    rnd = random.Random(f"synth:{seed}")
    items = []
    for kind, feasible, count in size.get("mix", SYNTH_MIX):
        for _ in range(count):
            sc = gen.random_scenario(rnd, kind, feasible)
            items.append(_synth_item(len(items), kind, feasible, sc, tmp))
    rnd.shuffle(items)
    return items


# ----------------------------------------------------------------------
# validate_sweep: one nonlinear run, its monitor, one linear oracle
# ----------------------------------------------------------------------

# Pairs and one chain; the chain's links run in one simultaneous integration.
VALIDATE_MIX = (("basic", 1), ("ubb", 1), ("chain", 1))
VALIDATE_SIZE = {"horizon": 3.0, "dt": 1e-3, "chain_robots": 3,
                 "oracle_runs": 100, "oracle_horizon": 3.0}

BUILD = {"basic": scenarios.build_basic_system,
         "ubb": scenarios.build_ubb_system}


def certified_gain(sc, poly, sysd) -> GainMatrix:
    """Minimum-norm gain of `poly`, with both certificates checked."""
    res = synthesis.min_norm_gain(poly)
    K = GainMatrix(*res.exact_gain)
    if not (systems.check_admissible(K, sysd.S, sysd.U).holds
            and systems.check_D_invariant_cone(sysd, K, 1).holds):
        raise RuntimeError(f"no certified gain for {sc}")
    return res.gain


def _validate_item(idx: int, kind: str, rnd: random.Random, seed: int,
                   size: dict) -> Item:
    horizon, dt = size["horizon"], size["dt"]
    item_seed = seed * 1000 + idx
    # one random-hold signal per item: its evaluation cost dominates the
    # run, so a fixed count keeps passes comparable across seeds
    random_first = rnd.random() < 0.5
    if kind == "chain":
        spec = gen.random_chain(rnd, size["chain_robots"])
        gains = []
        for k in range(1, spec.n):
            link = spec.link_scenario(k)
            gains.append(certified_gain(link, scenarios.gain_polytope(link),
                                        scenarios.build_basic_system(link)))
        s0 = [gen.random_s0(rnd, (g.a, g.a, g.b)) for g in spec.links]
        lead = spec.robots[0]
        profile_json = gen.random_profile_json(rnd, lead.V, lead.Omega,
                                               item_seed, random_first)
        oracle_link = spec.n - 1
        oracle_sys = scenarios.build_basic_system(spec.link_scenario(oracle_link))
        oracle_gain = gains[oracle_link - 1]
        boxes_su = [
            (Box.symmetric((g.a, g.a, g.b)),
             Box.symmetric((spec.robots[k].V, spec.robots[k].Omega)))
            for k, g in enumerate(spec.links, start=1)
        ]
        all_gains = gains
    else:
        sc = gen.random_scenario(rnd, kind, True)
        sysd = BUILD[kind](sc)
        gain = certified_gain(sc, POLYTOPE[kind](sc), sysd)
        s0 = gen.random_s0(rnd, (sc.a, sc.a, sc.b))
        profile_json = gen.random_profile_json(rnd, sc.V_L, sc.Omega_L,
                                               item_seed, random_first)
        oracle_sys, oracle_gain = sysd, gain
        boxes_su = [(sysd.S, sysd.U)]
        all_gains = [gain]
    profile = simulate.profile_from_json_dict(profile_json)

    def run():
        if kind == "chain":
            traces = simulate.simulate_chain(spec, gains, profile, s0,
                                             horizon, dt)
        elif kind == "ubb":
            noise = simulate.uniform_noise(sc.H_F, sc.H_L, item_seed)
            traces = [simulate.simulate_ubb(sc, gain, profile, noise, s0,
                                            horizon, dt)]
        else:
            traces = [simulate.simulate_basic(sc, gain, profile, s0,
                                              horizon, dt)]
        reports = [simulate.monitor(t, S, U)
                   for t, (S, U) in zip(traces, boxes_su)]
        ok, excess = systems.simulate_linear_switching(
            oracle_sys, oracle_gain, n_runs=size["oracle_runs"],
            horizon=size["oracle_horizon"], dt=dt, seed=item_seed)
        return {
            "clean": [r.clean for r in reports],
            "clamps": [t.clamp_events for t in traces],
            "oracle": ok,
            "excess": excess,
        }

    def check(out):
        problems = []
        if not all(out["clean"]):
            problems.append(f"window or input bound violated: {out['clean']}")
        if any(out["clamps"]):
            problems.append(f"clamp events {out['clamps']}")
        if not out["oracle"]:
            problems.append(f"linear oracle excess {out['excess']:.3g}")
        return problems

    def record(out):
        return {"clean": all(out["clean"]), "oracle": out["oracle"],
                "gains": [list(g.entries()) for g in all_gains]}

    return Item(f"{idx:02d}-{kind}", run, check, record)


def setup_validate(seed: int, tmp: Path, size: dict) -> list[Item]:
    rnd = random.Random(f"validate:{seed}")
    full = {**VALIDATE_SIZE, **size}
    items = []
    for kind, count in full.get("mix", VALIDATE_MIX):
        for _ in range(count):
            items.append(_validate_item(len(items), kind, rnd, seed, full))
    return items


# ----------------------------------------------------------------------
# demo: the `viskeep demo` command into a fresh directory
# ----------------------------------------------------------------------


def setup_demo(seed: int, tmp: Path, size: dict) -> list[Item]:
    out_dir = tmp / "demo_out"
    argv = ["demo", "--out", str(out_dir), "--seed", str(seed)]
    rows = int(round(demos.DEFAULT_HORIZON / demos.DEFAULT_DT)) + 1

    def run():
        return _quiet(cli.main, argv)

    def check(rc):
        problems = []
        if rc != 0:
            problems.append(f"demo exit {rc}")
        summary = _read_json(out_dir / "summary.json")
        bad = {k: v for k, v in summary.items() if v != "ok"}
        if bad or len(summary) != 4:
            problems.append(f"summary {summary}")
        csvs = sorted(out_dir.glob("*/*.csv"))
        if len(csvs) != 6:
            problems.append(f"{len(csvs)} trace files, expected 6")
        for path in csvs:
            with open(path, "rb") as fh:
                lines = sum(chunk.count(b"\n")
                            for chunk in iter(lambda: fh.read(1 << 20), b""))
            if lines != rows + 1:
                problems.append(f"{path.name}: {lines - 1} rows, expected {rows}")
        return problems

    def record(rc):
        out = {"exit": rc, "summary": _read_json(out_dir / "summary.json")}
        for name in ("basic", "ubb", "circle"):
            out[name] = _gain_list(_read_json(out_dir / name / "gain.json")["gain"])
        out["chain"] = [_gain_list(g["gain"])
                        for g in _read_json(out_dir / "chain" / "gains.json")]
        return out

    def cleanup():
        shutil.rmtree(out_dir, ignore_errors=True)

    return [Item("demo", run, check, record, cleanup)]


WORKLOADS = {
    "synth_sweep": setup_synth,
    "validate_sweep": setup_validate,
    "demo": setup_demo,
}
