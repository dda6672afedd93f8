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
from .inequalities import LinearInequalitySystem
from .scenarios import (
    exact_constants,
    load_scenario,
    rationalization_record,
    save_scenario,
    scenario_to_json_dict,
)
from .profiles import (
    InvarianceLostError,
    LeaderProfile,
    _check_amplitude,
    _finite_number,
    _read_json,
    _shown,
    _write_json,
    _write_text,
    constant,
    profile_from_json_dict,
)
from .synthesis import InfeasiblePolytopeError, min_norm_gain
from .systems import (
    GainMatrix,
    _steps,
    check_admissible,
    check_D_invariant_cone,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2


def _check_payload(sc):
    """What `check` writes for a scenario, with the closed-form report."""
    report = sc.conditions()
    payload = {"scenario": scenario_to_json_dict(sc)}
    payload.update(report.to_json_dict())
    payload.update(sc.check_extras(report))
    return payload, report


def _synth_payload(sc):
    """What `synth` writes: the min-norm gain of the reduced polytope and
    its certificates, plus that polytope; raises InfeasiblePolytopeError.
    The scenario's constants are rationalized and its uncertain system is
    built once, for all three and the rationalization record."""
    constants = exact_constants(sc)
    sysd = sc.system(constants)
    poly = sc.polytope(sysd).reduce()
    result = min_norm_gain(poly)
    K = GainMatrix(*result.exact_gain)
    adm = check_admissible(K, sysd.S, sysd.U)
    inv = check_D_invariant_cone(sysd, K)
    payload = {
        "scenario": scenario_to_json_dict(sc),
        "feasible_conditions": sc.conditions().to_json_dict(),
        "polytope_rows": len(poly),
        "rationalization": rationalization_record(constants),
        "certificates": {
            "admissible": adm.holds,
            "invariant": inv.holds,
            "exact": True,  # both certificates are exact, always
        },
    }
    payload.update(result.to_json_dict())
    return payload, poly


def _certified(payload) -> bool:
    certs = payload["certificates"]
    return certs["admissible"] and certs["invariant"]


def _gain_of(data) -> GainMatrix:
    """Gain from a flat ``{"k11", "k22", "k23"}`` object or a synth payload;
    each entry must be a finite JSON number, not a bool or a string."""
    keys = ("k11", "k22", "k23")
    g = data.get("gain", data) if isinstance(data, dict) else data
    if not (isinstance(g, dict) and all(key in g for key in keys)):
        raise ValueError("gain needs the entries 'k11', 'k22' and 'k23', "
                         f"not {_shown(g)}")
    for key in keys:
        val = g[key]
        if not _finite_number(val):
            raise ValueError(f"gain entry {key!r} must be a finite number, "
                             f"not {_shown(val)}")
    return GainMatrix(*(float(g[key]) for key in keys))


def _write_runs(run, links, out_dir, document) -> bool:
    """Run `run()`, the link traces of one run, monitor each link against
    the boxes of its ``(pair scenario, csv name)`` of `links`, write its
    trace CSV into `out_dir`, made if missing, and write
    ``document(reports)`` as violations.json: the monitor reports, each
    with the link's ``clamp_events`` and its step-doubling
    ``integration_error``.  True if every link is clean and never clamped.

    A run the wrap guard ends writes each link's trace up to the last
    sample before the wrap, reports no ``integration_error`` (a rerun at
    ``2 dt`` would wrap too) and names the link and time as
    ``heading_wrap``; the error is then raised again."""
    from . import simulate  # the float layer, loaded by runs alone

    try:
        traces, wrap = run(), None
    except InvarianceLostError as err:
        traces, wrap = err.traces, err
    errors = None if wrap else simulate.integration_error(traces)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports, clean = [], True
    for k, (trace, (sc, name)) in enumerate(zip(traces, links)):
        rep = simulate.monitor(trace, Box.symmetric((sc.a, sc.a, sc.b)),
                               Box.symmetric((sc.V_F, sc.Omega_F)))
        trace.to_csv(out_dir / name)
        report = {**rep.to_json_dict(), "clamp_events": trace.clamp_events}
        if errors is not None:
            report["integration_error"] = errors[k]
        reports.append(report)
        clean = clean and rep.clean and trace.clamp_events == 0
    payload = document(reports)
    if wrap is not None:
        payload["heading_wrap"] = {"link": wrap.link, "t": wrap.t}
    _write_json(out_dir / "violations.json", payload)
    if wrap is not None:
        raise wrap
    return clean


def _run_pair(sc, K, profile, s0, horizon, dt, out_dir, noise_amplitude=None,
              seed=0) -> bool:
    """Run one pair, write trace.csv and violations.json into `out_dir`,
    made if missing; True if clean."""
    from . import simulate

    def run():
        return [simulate.simulate_scenario(sc, K, profile, s0, horizon, dt,
                                           noise_amplitude, seed)]

    return _write_runs(run, [(sc, "trace.csv")], out_dir,
                       lambda reports: reports[0])


def _run_chain(spec, gains, profile, s0, horizon, dt, out_dir) -> bool:
    """Run a chain, write trace_link<k>.csv and violations.json, one report
    per link, into `out_dir`, made if missing; True if clean."""
    from . import simulate

    def run():
        return simulate.simulate_chain(spec, gains, profile, s0, horizon, dt)

    links = [(spec.link_scenario(k), f"trace_link{k}.csv")
             for k in range(1, spec.n)]
    return _write_runs(run, links, out_dir, lambda reports: {"links": reports})


def cmd_check(args) -> int:
    payload, report = _check_payload(load_scenario(args.scenario))
    _write_json(args.out, payload)
    if not report.feasible:
        print(f"infeasible: {report.worst().condition}", file=sys.stderr)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_synth(args) -> int:
    payload, poly = _synth_payload(load_scenario(args.scenario))
    _write_json(args.out, payload)
    if args.dump_polytope:
        _write_text(args.dump_polytope, poly.to_text())
    if not _certified(payload):
        print("certificate verification failed", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _parse_s0(text: str):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"--s0 takes numbers separated by commas, not "
                         f"{text!r}") from None


def cmd_simulate(args) -> int:
    if not (args.scenario or args.chain_spec):
        raise ValueError("simulate needs --scenario or --chain-spec")
    if args.chain_spec and args.scenario:
        raise ValueError("--scenario applies to pair runs; a chain takes "
                         "its links from --chain-spec")
    if args.chain_spec and args.gain:
        raise ValueError("--gain applies to --scenario runs; a chain takes "
                         "its gains from --gains")
    if not args.chain_spec and args.gains:
        raise ValueError("--gains applies to --chain-spec runs; a pair takes "
                         "its gain from --gain")
    out_dir = Path(args.out or ".")  # made by _run_pair or _run_chain
    profile = (profile_from_json_dict(_read_json(args.profile)) if args.profile
               else LeaderProfile(constant(0.0), constant(0.0)))
    if args.chain_spec:
        spec = load_chain(args.chain_spec)
        if args.noise_amplitude is not None:
            raise ValueError("--noise-amplitude applies to ubb scenarios only, "
                             "not to chains")
        if not args.gains:
            raise ValueError("chain simulation needs --gains")
        gains = _read_json(args.gains)
        if not isinstance(gains, list):
            raise ValueError(f"'--gains' must be a list of gains, one per "
                             f"link, not {_shown(gains)}")
        gains = [_gain_of(g) for g in gains]
        s0 = ([_parse_s0(tok) for tok in args.s0.split(";")] if args.s0
              else [(0.0, 0.0, 0.0)] * (spec.n - 1))
        clean = _run_chain(spec, gains, profile, s0, args.horizon, args.dt,
                           out_dir)
    else:
        sc = load_scenario(args.scenario)
        if args.noise_amplitude is not None and sc.kind != "ubb":
            raise ValueError("--noise-amplitude applies to ubb scenarios only, "
                             f"not to {sc.kind}")
        if args.noise_amplitude is not None:
            _check_amplitude(args.noise_amplitude)
        K = _gain_of(_read_json(args.gain) if args.gain
                     else _synth_payload(sc)[0])
        s0 = _parse_s0(args.s0) if args.s0 else (0.0, 0.0, 0.0)
        clean = _run_pair(sc, K, profile, s0, args.horizon, args.dt, out_dir,
                          args.noise_amplitude, args.seed)
    return EXIT_OK if clean else EXIT_INFEASIBLE


def _key_values(text: str, usage: str, required: tuple,
                optional: tuple = (), integers: tuple = ()) -> dict:
    """``k1=v1,k2=v2`` as a dict of floats.  Each token must be
    ``key=value`` with a key from `required` or `optional` and a finite
    number for its value, an integer for a key in `integers`, and every key
    in `required` must be given; otherwise a ValueError names the token or
    key at fault, after `usage` (an integer's message, ``n must be an
    integer``, stands alone)."""
    keys = required + optional
    vals = {}
    for tok in text.split(","):
        key, eq, val = tok.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"{usage}; {key!r} has no '=' and no value")
        if key not in keys:
            raise ValueError(f"{usage}; {key!r} is not one of "
                             f"{', '.join(keys)}")
        try:
            x = float(val)
        except ValueError:
            x = math.nan
        else:
            if key in integers and not x.is_integer():
                raise ValueError(f"{key} must be an integer, not {x!r}")
        if not math.isfinite(x):
            raise ValueError(f"{usage}; {key!r} must be a finite number, "
                             f"not {val.strip()!r}")
        vals[key] = x
    for key in required:
        if key not in vals:
            raise ValueError(f"{usage}; {key!r} is missing")
    return vals


def cmd_chain(args) -> int:
    payload = {}
    feasible = True
    if args.generate:
        vals = _key_values(args.generate, "generate needs a=..,d=..,n=..,V1=..",
                           ("a", "d", "n", "V1"), ("safety",), ("n",))
        try:
            spec = generate_schedule(
                a=vals["a"], d=vals["d"], n=int(vals["n"]), V_1=vals["V1"],
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
        vals = _key_values(args.maps, "maps need a=..,b=..,d=..",
                           ("a", "b", "d"))
        maps = ParameterMaps.constant(vals["a"], vals["b"], vals["d"])
        res = max_chain_length(maps, args.max_n)
        payload["max_chain_length"] = {
            "max_robots": res.max_robots, "capped": res.capped,
        }
    if not payload:
        raise ValueError("nothing to do: pass --spec, --generate or --maps")
    _write_json(args.out, payload)
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _parse_indices(text: str, option: str) -> set:
    """The variable indices of ``--eliminate`` or ``--keep``, separated by
    commas; ``""`` is none.  A token that is not an integer is a ValueError
    that names `option` and the token."""
    indices = set()
    for tok in text.split(",") if text else ():
        try:
            indices.add(int(tok))
        except ValueError:
            raise ValueError(f"{option} takes variable indices separated by "
                             f"commas, not {tok!r}") from None
    return indices


def cmd_fme(args) -> int:
    text = Path(args.input).read_text()
    system = LinearInequalitySystem.from_text(text)
    if args.eliminate is not None:
        drop = _parse_indices(args.eliminate, "--eliminate")
        if not drop <= set(range(system.num_vars)):
            raise ValueError("eliminate contains an out-of-range variable index")
        keep = [i for i in range(system.num_vars) if i not in drop]
    elif args.keep is not None:
        keep = sorted(_parse_indices(args.keep, "--keep"))
    else:
        keep = []
    projected = system.project(keep)
    feasible = projected.is_feasible()
    _write_text(args.out or None, projected.to_text())
    print(f"feasible: {feasible}", file=sys.stderr)
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_demo(args) -> int:
    """Each bundle's files are what check (chain for the chain bundle),
    synth and simulate write for its scenario.json and profile.json.  The
    step and horizon are checked before any file is written."""
    from . import simulate

    _steps(args.horizon, args.dt)
    simulate._hold_steps(args.dt)  # the ubb bundle's noise holds
    out_root = Path(args.out)
    summary = {}
    for b in demos.BUNDLES.values():
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


class _Parser(argparse.ArgumentParser):
    """argparse reads a token such as ``-0.1,0,0`` or ``-inf`` as an unknown
    option, so ``--s0 -0.1,0,0`` would fail where ``--s0=-0.1,0,0`` runs.
    Every option here but ``-h`` is long, so a token that starts with a
    single ``-`` is the value of the long option before it, and is parsed
    as ``--option=value``."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for tok in sys.argv[1:] if args is None else args:
            if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                    and tok.startswith("-") and not tok.startswith("--")
                    and tok != "-h"):
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        return super().parse_known_args(joined, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--horizon", type=float, default=demos.DEFAULT_HORIZON)
    p.add_argument("--dt", type=float, default=demos.DEFAULT_DT)
    p.add_argument("--seed", type=int, default=0)
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
    which = p.add_mutually_exclusive_group()
    which.add_argument("--eliminate", help="comma-separated variable indices")
    which.add_argument("--keep", help="comma-separated variable indices")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fme)

    p = sub.add_parser("demo", help="regenerate all benchmark bundles")
    p.add_argument("--out", default="demo_out")
    p.add_argument("--horizon", type=float, default=demos.DEFAULT_HORIZON)
    p.add_argument("--dt", type=float, default=demos.DEFAULT_DT)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  An empty gain polytope, in synth or in a simulate
    with no --gain, exits 1 with one ``gain polytope is empty`` line, and a
    run whose heading difference leaves (-pi, pi) exits 1 with the line that
    says where.  A run too large to allocate is an input error, exit 2."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfeasiblePolytopeError, InvarianceLostError) as exc:  # verdicts
        print(exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
