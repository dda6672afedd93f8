"""Leader velocity profiles: the signals a simulation drives robot 0 with.

A profile is a pair of plain functions of time, the leader's speed offset
and its turn rate, built from their JSON form by
:func:`profile_from_json_dict`.  This module needs no numpy, so the
command-line front end and the bundled demos can read and check profiles
without loading the float layer (:mod:`viskeep.simulate`).  For the same
reason it holds what both layers share: the package's one JSON reader and
writer, the monitor's tolerance ``BOUND_TOL`` and ``InvarianceLostError``.

Each built-in signal also carries ``array``, its form over a numpy array of
times, which the integrator samples a block of steps with: bit for bit its
scalar calls, or NaN where it cannot reproduce them (a parameter that is not
a finite int or float, an argument beyond the floats), which sends the block
back to the scalar calls.  The sinusoids take numpy's sin and cos to round as
math's do, as the integrator's pose of robot 0 does (:func:`viskeep.simulate._poses`).
The array forms import numpy in their bodies.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BOUND_TOL = 1e-9


class InvarianceLostError(ValueError):
    """A run's heading difference left (-pi, pi): a verdict on the run,
    which the command line reports as a violated run, not as bad input."""


def _with_array(f: Callable[[float], float], array) -> Callable[[float], float]:
    f.array = array
    return f


def _nan_array(t):
    import numpy as np

    return np.full(len(t), math.nan)


def constant(value: float) -> Callable[[float], float]:
    def array(t):
        import numpy as np

        if not _finite_number(value):
            return _nan_array(t)
        return np.full(len(t), value, dtype=float)

    return _with_array(lambda t: value, array)


def sinusoid(amplitude: float, omega: float, phase: float = 0.0,
             kind: str = "sin") -> Callable[[float], float]:
    if kind not in ("sin", "cos"):
        raise ValueError("kind must be 'sin' or 'cos'")
    fn = getattr(math, kind)

    def array(t):
        import numpy as np

        if not all(map(_finite_number, (amplitude, omega, phase))):
            return _nan_array(t)
        return amplitude * getattr(np, kind)(omega * t + phase)  # NaN at inf

    return _with_array(lambda t: amplitude * fn(omega * t + phase), array)


def random_hold(amplitude: float, dt_hold: float, seed: int = 0) -> Callable[[float], float]:
    """Uniform value in [-amplitude, amplitude], resampled every dt_hold.

    The value of hold interval ``i = int(t / dt_hold)`` is the first draw
    of ``random.Random(f"{seed}:{i}")``, so it depends only on (seed, i)
    and evaluation order cannot change a trajectory.  The last interval's
    value is memoized: seeding a generator costs about 60 sinusoid
    samples, and an integrator samples each interval thousands of times,
    so one generator is built per interval visited in a row.  The array
    form visits its intervals in ascending order through the same memo.
    A hold so small that ``t / dt_hold`` overflows at a sampled ``t`` is a
    ValueError that names the hold.
    """
    if dt_hold <= 0:
        raise ValueError(f"random profile hold must be positive, not {dt_hold!r}")
    memo = (None, 0.0)  # (interval, its value), rebound as one tuple

    def value(i: int) -> float:
        nonlocal memo
        key, val = memo
        if key != i:
            val = random.Random(f"{seed}:{i}").uniform(-amplitude, amplitude)
            memo = (i, val)
        return val

    def f(t: float) -> float:
        try:
            return value(int(t / dt_hold))
        except OverflowError:  # t / dt_hold is inf
            raise ValueError(f"random profile hold {dt_hold!r} is too small: "
                             f"t / hold overflows at t = {t:.6g}") from None

    def array(t):
        import numpy as np

        if not (_finite_number(amplitude) and _finite_number(dt_hold)):
            return _nan_array(t)
        q = t / dt_hold
        if not (np.abs(q) < 2.0 ** 62).all():  # int64 holds int(q)
            return _nan_array(t)
        keys, at = np.unique(q.astype(np.int64), return_inverse=True)
        return np.array([value(i) for i in keys.tolist()])[at]

    return _with_array(f, array)


def sum_of(f: Callable[[float], float], g: Callable[[float], float]) -> Callable[[float], float]:
    def h(t: float) -> float:
        return f(t) + g(t)

    if hasattr(f, "array") and hasattr(g, "array"):
        return _with_array(h, lambda t: f.array(t) + g.array(t))
    return h


@dataclass(frozen=True)
class LeaderProfile:
    """Leader speed offset and turn-rate signals (turn rate is the shifted
    quantity for orbit scenarios)."""

    v: Callable[[float], float]
    omega: Callable[[float], float]


def _finite_number(val) -> bool:
    """A finite int or float, not a bool and not an int beyond the floats."""
    try:
        return type(val) in (int, float) and math.isfinite(val)
    except OverflowError:
        return False


def _shown(val) -> str:
    """`val` for an error line: its repr, but a container by its type and
    length, and a repr longer than 60 characters (an int's by its digit
    count) by its size, as such a repr can run to thousands of characters."""
    if isinstance(val, (dict, list, tuple)):
        return f"a {type(val).__name__} of length {len(val)}"
    text = repr(val)
    if len(text) <= 60:
        return text
    if type(val) is int:
        return f"an int of {len(text.lstrip('-'))} digits"
    return f"a {type(val).__name__} whose repr has {len(text)} characters"


def _read_json(path):
    """The JSON value in file `path`; too deep a nesting is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _write_text(path, text: str) -> None:
    """Write `text` to the file `path`, making its parent directory first,
    or to stdout if `path` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


def _write_json(path, payload) -> None:
    """Write `payload` as JSON, indented and key-sorted, and a newline, as
    :func:`_write_text` does: every JSON file the package writes."""
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _number(obj: dict, key: str, where: str, default=None):
    """``obj[key]``, or `default` when it is absent, which must be a finite
    JSON number: anything else is a ValueError naming `where` and `key`."""
    val = obj.get(key, default)
    if not _finite_number(val):
        raise ValueError(f"{where} needs a finite number for {key!r}, "
                         f"not {_shown(val)}")
    return val


def profile_from_json_dict(data: dict) -> LeaderProfile:
    """Profile from its JSON form; a malformed signal is a ValueError."""
    def number(spec, key, default=None):
        return _number(spec, key, f"{spec['type']} profile", default)

    def build(spec) -> Callable[[float], float]:
        if not isinstance(spec, dict):
            raise ValueError("profile signal must be a JSON object, "
                             f"not {_shown(spec)}")
        kind = spec.get("type")
        if kind == "constant":
            return constant(number(spec, "value"))
        if kind in ("sin", "cos"):
            return sinusoid(number(spec, "amplitude"), number(spec, "omega"),
                            number(spec, "phase", 0.0), kind)
        if kind == "random":
            seed = spec.get("seed", 0)
            if type(seed) is not int:
                raise ValueError(f"random profile seed must be an integer, "
                                 f"not {_shown(seed)}")
            return random_hold(number(spec, "amplitude"), number(spec, "hold"),
                               seed)
        if kind == "sum":
            terms = spec.get("terms")
            if not (isinstance(terms, list) and len(terms) == 2):
                raise ValueError("sum profile takes a list of exactly two terms")
            return sum_of(build(terms[0]), build(terms[1]))
        raise ValueError(f"unknown profile type {_shown(kind)}")

    if not isinstance(data, dict):
        raise ValueError(f"profile must be a JSON object, not {_shown(data)}")
    for key in ("v", "omega"):
        if key not in data:
            raise ValueError(
                f"profile needs signals 'v' and 'omega'; {key!r} is missing")
    return LeaderProfile(v=build(data["v"]), omega=build(data["omega"]))


def _checked(sig: Callable[[float], float], bound: float, name: str) -> Callable[[float], float]:
    def f(t: float) -> float:
        val = sig(t)
        if not abs(val) <= bound + BOUND_TOL:  # NaN fails too
            raise ValueError(
                f"leader profile exceeds its bound: |{name}({t:.6g})| = "
                f"{abs(val):.6g} > {bound:.6g}"
            )
        return val

    return f


def _check_amplitude(amp: float) -> None:
    """A lateral noise amplitude is a finite number >= 0: a negative one
    would draw noise all the same, and NaN or inf no bounded noise."""
    if not 0 <= amp < math.inf:
        raise ValueError("noise amplitude must be a finite number >= 0, "
                         f"not {_shown(amp)}")
