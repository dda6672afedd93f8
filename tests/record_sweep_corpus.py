"""Rewrite ``tests/data/sweep_corpus_expected.json`` from the package as it
is: the outputs of every item of ``tests/data/sweep_corpus.json`` (see
``tests/test_sweep_corpus.py``), one line per item.

Run from the root of a checkout::

    PYTHONPATH=src python3 tests/record_sweep_corpus.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from test_sweep_corpus import CORPUS, EXPECTED, corpus_outputs


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{json.dumps(item['id'])}: "
                 f"{json.dumps(corpus_outputs(item['scenario'], Path(tmp)), sort_keys=True)}"
                 for item in CORPUS]
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{EXPECTED}: {len(lines)} items")


if __name__ == "__main__":
    main()
