"""Command-line front end.

Subcommands:

* ``check``     -- closed-form solvability test of a scenario file
* ``synth``     -- build the gain polytope, pick the minimum-norm gain,
                   verify the admissibility and invariance certificates
* ``simulate``  -- integrate the nonlinear closed loop and monitor bounds
* ``chain``     -- chain feasibility, schedule generation, length bound
* ``fme``       -- project an inequality-system file and report feasibility
* ``demo``      -- regenerate all bundled benchmark runs

Exit codes: 0 success/feasible, 1 analytic infeasibility or violated run,
2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from . import demos
from .boxes import Box
from .chains import (
    ParameterMaps,
    ScheduleInfeasibleError,
    chain_to_json_dict,
    closed_chain_check,
    feasible_chain,
    generate_schedule,
    load_chain,
    max_chain_length,
    save_chain,
)
from .inequalities import LinearInequalitySystem, rational
from .scenarios import (
    load_scenario,
    rationalization_record,
    save_scenario,
    scenario_to_json_dict,
)
from .simulate import (
    BOUND_TOL,
    LeaderProfile,
    _check_tol,
    monitor,
    profile_from_json_dict,
    simulate_chain,
)
from .synthesis import InfeasiblePolytopeError, min_norm_gain
from .systems import (
    GainMatrix,
    check_admissible,
    check_D_invariant_cone,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2


def _write_json(path, payload) -> None:
    if path is None:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_payload(sc):
    """What `check` writes for a scenario, with the closed-form report."""
    report = sc.conditions()
    payload = {"scenario": scenario_to_json_dict(sc)}
    payload.update(report.to_json_dict())
    payload.update(sc.check_extras(report))
    return payload, report


def _synth_payload(sc, tau=Fraction(1)):
    """What `synth` writes: the min-norm gain of the reduced polytope and
    its certificates, plus that polytope; raises InfeasiblePolytopeError."""
    poly = sc.polytope().reduce()
    result = min_norm_gain(poly)
    K = GainMatrix(*result.exact_gain)
    sysd = sc.system()
    adm = check_admissible(K, sysd.S, sysd.U)
    inv = check_D_invariant_cone(sysd, K, tau)
    payload = {
        "scenario": scenario_to_json_dict(sc),
        "feasible_conditions": sc.conditions().to_json_dict(),
        "polytope_rows": len(poly.rows),
        "rationalization": rationalization_record(sc.constants()),
        "certificates": {
            "admissible": adm.holds,
            "invariant": inv.holds,
            "exact": adm.exact and inv.exact,
            "tau": float(tau),
        },
    }
    payload.update(result.to_json_dict())
    return payload, poly


def _certified(payload) -> bool:
    certs = payload["certificates"]
    return certs["admissible"] and certs["invariant"]


def _gain_of(data) -> GainMatrix:
    """Gain from a flat ``{"k11", "k22", "k23"}`` object or a synth payload."""
    g = data.get("gain", data) if isinstance(data, dict) else data
    try:
        K = GainMatrix(float(g["k11"]), float(g["k22"]), float(g["k23"]))
    except (TypeError, ValueError) as exc:  # null, list, text, ...
        raise ValueError(f"gain entries must be finite numbers: {g}") from exc
    if not all(math.isfinite(k) for k in K.entries()):
        raise ValueError(f"gain entries must be finite numbers: {g}")
    return K


def _run_pair(sc, K, profile, s0, horizon, dt, out_dir, tol=BOUND_TOL,
              noise_amplitude=None, seed=0) -> bool:
    """Run one pair, write trace.csv and violations.json; True if clean."""
    trace = sc.simulate(K, profile, s0, horizon, dt, noise_amplitude, seed)
    sysd = sc.system()
    rep = monitor(trace, sysd.S, sysd.U, tol=tol)
    trace.to_csv(out_dir / "trace.csv")
    payload = rep.to_json_dict()
    payload["clamp_events"] = trace.clamp_events
    _write_json(out_dir / "violations.json", payload)
    return rep.clean and trace.clamp_events == 0


def _run_chain(spec, gains, profile, s0, horizon, dt, out_dir,
               tol=BOUND_TOL) -> bool:
    """Run a chain, write trace_link<k>.csv and violations.json; True if clean."""
    traces = simulate_chain(spec, gains, profile, s0, horizon, dt)
    clean = True
    reports = []
    for k, trace in enumerate(traces, start=1):
        g = spec.links[k - 1]
        S = Box.symmetric((g.a, g.a, g.b))
        U = Box.symmetric((spec.robots[k].V, spec.robots[k].Omega))
        rep = monitor(trace, S, U, tol=tol)
        trace.to_csv(out_dir / f"trace_link{k}.csv")
        reports.append(rep.to_json_dict())
        clean = clean and rep.clean and trace.clamp_events == 0
    _write_json(out_dir / "violations.json", {"links": reports})
    return clean


def cmd_check(args) -> int:
    payload, report = _check_payload(load_scenario(args.scenario))
    _write_json(args.out, payload)
    if not report.feasible:
        print(f"infeasible: {report.worst().condition}", file=sys.stderr)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_synth(args) -> int:
    if not args.tau > 0:  # before the polytope, not after it
        raise ValueError("tau must be positive")
    sc = load_scenario(args.scenario)
    try:
        payload, poly = _synth_payload(sc, args.tau)
    except InfeasiblePolytopeError:
        print("gain polytope is empty", file=sys.stderr)
        return EXIT_INFEASIBLE
    _write_json(args.out, payload)
    if args.dump_polytope:
        Path(args.dump_polytope).write_text(poly.to_text())
    if not _certified(payload):
        print("certificate verification failed", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _parse_s0(text: str):
    return tuple(float(tok) for tok in text.split(","))


def cmd_simulate(args) -> int:
    if not (args.scenario or args.chain_spec):
        raise ValueError("simulate needs --scenario or --chain-spec")
    if args.chain_spec and args.scenario:
        raise ValueError("--scenario applies to pair runs; a chain takes "
                         "its links from --chain-spec")
    if args.chain_spec and args.gain:
        raise ValueError("--gain applies to --scenario runs; a chain takes "
                         "its gains from --gains")
    _check_tol(args.tol)  # before the run, not after it
    if not args.chain_spec and args.gains:
        raise ValueError("--gains applies to --chain-spec runs; a pair takes "
                         "its gain from --gain")
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = (profile_from_json_dict(_read_json(args.profile)) if args.profile
               else LeaderProfile(lambda t: 0.0, lambda t: 0.0))
    if args.chain_spec:
        spec = load_chain(args.chain_spec)
        if args.noise_amplitude is not None:
            raise ValueError("--noise-amplitude applies to ubb scenarios only, "
                             "not to chains")
        if not args.gains:
            raise ValueError("chain simulation needs --gains")
        gains = [_gain_of(g) for g in _read_json(args.gains)]
        s0 = ([_parse_s0(tok) for tok in args.s0.split(";")] if args.s0
              else [(0.0, 0.0, 0.0)] * (spec.n - 1))
        clean = _run_chain(spec, gains, profile, s0, args.horizon, args.dt,
                           out_dir, args.tol)
    else:
        sc = load_scenario(args.scenario)
        if args.noise_amplitude is not None and sc.kind != "ubb":
            raise ValueError("--noise-amplitude applies to ubb scenarios only, "
                             f"not to {sc.kind}")
        if args.gain:
            K = _gain_of(_read_json(args.gain))
        else:
            res = min_norm_gain(sc.polytope().reduce())
            K = GainMatrix(*res.exact_gain).as_floats()
        s0 = _parse_s0(args.s0) if args.s0 else (0.0, 0.0, 0.0)
        clean = _run_pair(sc, K, profile, s0, args.horizon, args.dt, out_dir,
                          args.tol, args.noise_amplitude, args.seed)
    return EXIT_OK if clean else EXIT_INFEASIBLE


def _key_values(text: str) -> dict:
    """``k1=v1,k2=v2`` as a dict of floats."""
    vals = {}
    for tok in text.split(","):
        key, _, val = tok.partition("=")
        vals[key.strip()] = float(val)
    return vals


def cmd_chain(args) -> int:
    payload = {}
    feasible = True
    if args.generate:
        vals = _key_values(args.generate)
        n = vals["n"]
        if not n.is_integer():
            raise ValueError(f"n must be an integer, not {n!r}")
        try:
            spec = generate_schedule(
                a=vals["a"], d=vals["d"], n=int(n), V_1=vals["V1"],
                safety=vals.get("safety", 0.1),
            )
        except ScheduleInfeasibleError as exc:
            print(exc, file=sys.stderr)
            return EXIT_INFEASIBLE
        payload["generated"] = chain_to_json_dict(
            spec, provenance={"generator": vals}
        )
    elif args.spec:
        spec = load_chain(args.spec)
    else:
        spec = None
    if spec is not None:
        report = feasible_chain(spec)
        payload["feasible"] = report.to_json_dict()
        feasible = report.feasible
        if args.closed:
            payload["closed"] = closed_chain_check(spec).to_json_dict()
    if args.maps:
        vals = _key_values(args.maps)
        try:
            maps = ParameterMaps.constant(vals["a"], vals["b"], vals["d"])
        except KeyError as exc:
            raise ValueError("maps need a=..,b=..,d=..") from exc
        res = max_chain_length(maps, args.max_n)
        payload["max_chain_length"] = {
            "max_robots": res.max_robots, "capped": res.capped,
        }
    if not payload:
        raise ValueError("nothing to do: pass --spec, --generate or --maps")
    _write_json(args.out, payload)
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_fme(args) -> int:
    text = Path(args.input).read_text()
    system = LinearInequalitySystem.from_text(text)
    if args.eliminate:
        drop = sorted({int(tok) for tok in args.eliminate.split(",")})
        keep = [i for i in range(system.num_vars) if i not in drop]
    elif args.keep is not None:
        keep = sorted({int(tok) for tok in args.keep.split(",")} if args.keep else set())
    else:
        keep = []
    projected = system.project(keep)
    feasible = projected.is_feasible()
    out = projected.to_text()
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    print(f"feasible: {feasible}", file=sys.stderr)
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_demo(args) -> int:
    """Each bundle's files are what check (chain for the chain bundle),
    synth and simulate write for its scenario.json and profile.json."""
    out_root = Path(args.out)
    summary = {}
    for b in demos.BUNDLES:
        out_dir = out_root / b.name
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "profile.json", demos.PROFILE_JSON[b.name])
        if b.name == "chain":
            spec = b.scenario
            save_chain(spec, out_dir / "scenario.json")
            report = feasible_chain(spec)
            _write_json(out_dir / "check.json",
                        {"feasible": report.to_json_dict()})
            gains = [_synth_payload(spec.link_scenario(k))[0]
                     for k in range(1, spec.n)]
            _write_json(out_dir / "gains.json", gains)
            certified = all(map(_certified, gains))
            clean = _run_chain(spec, [_gain_of(g) for g in gains], b.profile,
                               b.s0, args.horizon, args.dt, out_dir)
        else:
            save_scenario(b.scenario, out_dir / "scenario.json")
            check, report = _check_payload(b.scenario)
            _write_json(out_dir / "check.json", check)
            gain, _ = _synth_payload(b.scenario)
            _write_json(out_dir / "gain.json", gain)
            certified = _certified(gain)
            clean = _run_pair(b.scenario, _gain_of(gain), b.profile, b.s0,
                              args.horizon, args.dt, out_dir,
                              noise_amplitude=b.noise_amplitude,
                              seed=args.seed)
        ok = report.feasible and certified and clean
        summary[b.name] = "ok" if ok else "VIOLATIONS"
    _write_json(out_root / "summary.json", summary)
    for name, status in summary.items():
        print(f"{name}: {status}")
    ok = all(status == "ok" for status in summary.values())
    return EXIT_OK if ok else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viskeep",
        description="visibility-keeping gain synthesis and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="closed-form solvability test")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synth", help="minimum-norm certified gain")
    p.add_argument("--scenario", required=True)
    p.add_argument("--tau", type=rational, default=Fraction(1))
    p.add_argument("--out")
    p.add_argument("--dump-polytope")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="nonlinear closed-loop run")
    p.add_argument("--scenario")
    p.add_argument("--chain-spec")
    p.add_argument("--gain")
    p.add_argument("--gains")
    p.add_argument("--profile")
    p.add_argument("--s0")
    p.add_argument("--horizon", type=float, default=60.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--noise-amplitude", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("chain", help="chain feasibility and bounds")
    p.add_argument("--spec")
    p.add_argument("--generate", help="a=..,d=..,n=..,V1=..[,safety=..]")
    p.add_argument("--maps", help="a=..,b=..,d=.. constant geometry maps")
    p.add_argument("--max-n", type=int, default=100)
    p.add_argument("--closed", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("fme", help="project an inequality-system file")
    p.add_argument("--input", required=True)
    p.add_argument("--eliminate", help="comma-separated variable indices")
    p.add_argument("--keep", help="comma-separated variable indices")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fme)

    p = sub.add_parser("demo", help="regenerate all benchmark bundles")
    p.add_argument("--out", default="demo_out")
    p.add_argument("--horizon", type=float, default=demos.DEFAULT_HORIZON)
    p.add_argument("--dt", type=float, default=demos.DEFAULT_DT)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


def _print_warning(message, *_where, **_kw) -> None:
    print(f"warning: {message}", file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; each warning is printed as one ``warning: <message>``
    line, and the library's (UserWarning) every time it is raised."""
    args = _parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
