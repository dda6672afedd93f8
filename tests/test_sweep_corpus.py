"""The golden sweep corpus: `check` and `synth --dump-polytope` on 136
scenarios, each output compared with its recorded hash.

``tests/data/sweep_corpus.json`` holds the scenarios: the 132 seeded
``synth_sweep`` scenarios of the benchmark's seeds 0 to 5 in the order they
are drawn, the demo's three pair scenarios, and the demo circle scenario
with ``V_F = 0.775``, whose closed form passes while its gain polytope is
empty.  The file was generated once and is read as data, so no change to
the benchmark's generator or to the closed forms can move it.

``tests/data/sweep_corpus_expected.json`` holds, per item, both exit codes,
the sha256 of the `check` JSON, the `synth` JSON, the polytope text and the
two commands' stderr (None for a file not written), and the exact
min-norm gain as ``"p/q"`` strings, or ``"infeasible"``.  A change that
moves an output re-records the file with ``tests/record_sweep_corpus.py``
and says which items moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from viskeep import cli

DATA = Path(__file__).resolve().parent / "data"
CORPUS = json.loads((DATA / "sweep_corpus.json").read_text())
EXPECTED = DATA / "sweep_corpus_expected.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_outputs(scenario: dict, tmp: Path) -> dict:
    """What `check` and `synth --dump-polytope` give for `scenario`, run
    in-process through :func:`viskeep.cli.main` with their files in `tmp`.
    The exact gain is the one `synth` selects, read from its
    ``min_norm_gain`` call."""
    path, check, gain, poly = (tmp / name for name in (
        "scenario.json", "check.json", "gain.json", "polytope.txt"))
    path.write_text(json.dumps(scenario))
    select, selected = cli.min_norm_gain, []

    def min_norm_gain(polytope):
        result = select(polytope)
        selected.append([str(x) for x in result.exact_gain])
        return result

    stderr = io.StringIO()
    cli.min_norm_gain = min_norm_gain
    try:
        with contextlib.redirect_stderr(stderr):
            check_exit = cli.main(["check", "--scenario", str(path),
                                   "--out", str(check)])
            synth_exit = cli.main(["synth", "--scenario", str(path),
                                   "--out", str(gain),
                                   "--dump-polytope", str(poly)])
    finally:
        cli.min_norm_gain = select
    out = {"check_exit": check_exit, "synth_exit": synth_exit,
           "stderr": _sha256(stderr.getvalue().encode()),
           "gain": selected[0] if selected else "infeasible"}
    for key, file in (("check_json", check), ("synth_json", gain),
                      ("polytope", poly)):
        out[key] = _sha256(file.read_bytes()) if file.exists() else None
        file.unlink(missing_ok=True)
    return out


def test_sweep_corpus_outputs_are_unchanged(tmp_path):
    """Every output of every corpus item is the recorded one; a failure
    names each item and output that moved."""
    expected = json.loads(EXPECTED.read_text())
    assert list(expected) == [item["id"] for item in CORPUS]
    moved = []
    for item in CORPUS:
        got = corpus_outputs(item["scenario"], tmp_path)
        want = expected[item["id"]]
        moved += [f"{item['id']}: {key} is {got.get(key)!r}, recorded "
                  f"{want.get(key)!r}" for key in sorted({*got, *want})
                  if got.get(key) != want.get(key)]
    assert not moved, "\n".join(moved)
