"""Regenerate the frozen differential corpus under ``data/``.

Run from the repo root::

    PYTHONPATH=src:tests python tests/differential/freeze.py

Only rerun this when the corpus *should* change (e.g. a deliberate
generator overhaul) — the whole point of the frozen files is that
``test_frozen_corpus_answers`` fails when answers drift unintentionally.
"""

from __future__ import annotations

import json

from repro.baselines.scan import SequentialScan
from repro.graphs import GraphDatabase, save_database

try:  # imported as a module (pytest: tests.differential.freeze)
    from tests.differential.test_answer_sets import DATA_DIR, make_corpus
except ImportError:  # run as a script with PYTHONPATH=src:tests
    from differential.test_answer_sets import DATA_DIR, make_corpus

FROZEN_KIND = "chemical"
FROZEN_SEED = 999


def main() -> None:
    db, queries = make_corpus(FROZEN_KIND, FROZEN_SEED)
    scan = SequentialScan(db)
    answers = [sorted(scan.support_set(q)) for q in queries]
    DATA_DIR.mkdir(exist_ok=True)
    save_database(db, DATA_DIR / "corpus.txt")
    save_database(GraphDatabase(queries), DATA_DIR / "queries.txt")
    (DATA_DIR / "expected_answers.json").write_text(
        json.dumps(
            {
                "kind": FROZEN_KIND,
                "seed": FROZEN_SEED,
                "answers": answers,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"froze {len(db)} graphs, {len(queries)} queries -> {DATA_DIR}")


if __name__ == "__main__":
    main()
