"""Replay the committed chaos regression corpus.

Every ``tests/chaos_corpus/*.json`` document is a ddmin-minimised
failing schedule found by ``python -m repro chaos`` against a sentinel
injection.  Replaying it must reproduce at least one of the recorded
failure kinds — if a refactor silently stops a repro from failing, the
planted bug class is no longer being detected and the corpus file (or
the detector) needs attention.
"""

import glob
import json
import os

import pytest

from repro.chaos import replay_file
from repro.cli import main

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "chaos_corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_not_empty():
    assert CORPUS, "the chaos regression corpus vanished"


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_corpus_repro_still_fails(path):
    outcome, doc = replay_file(path)
    assert doc["expect_failure"] is True
    recorded = set(doc["failure_kinds"])
    reproduced = recorded.intersection(outcome.kinds)
    assert reproduced, (
        f"{os.path.basename(path)} no longer reproduces: recorded kinds "
        f"{sorted(recorded)}, replay produced {outcome.kinds or 'no failure'}"
    )


def test_cli_replays_the_corpus(capsys):
    assert main(["chaos", "--replay", *CORPUS]) == 0
    assert capsys.readouterr().out.count(": reproduced (") == len(CORPUS) == 1


def test_a_misspelt_injection_is_refused_not_run_clean(tmp_path):
    """A corpus file naming an injection the table does not define must
    not replay the clean code and quietly pass."""
    with open(os.path.join(CORPUS_DIR, "chaos-repro-s0-t3-lww.json")) as fh:
        doc = json.load(fh)
    doc["inject"] = "gc_frontier"
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        replay_file(str(path))
    message = str(info.value)
    assert "unknown injection 'gc_frontier'" in message
    assert "known: none, gc-frontier" in message



@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc.pop("spec"), "missing field 'spec'"),
        (lambda doc: doc["spec"].pop("name"), "field 'spec' has no 'name'"),
        (lambda doc: doc.update(algorithm="lwww"), "unknown algorithm 'lwww'"),
    ],
    ids=["no-spec", "no-spec-name", "unknown-algorithm"],
)
def test_a_malformed_repro_is_refused_with_its_field(tmp_path, capsys, edit, field):
    """A repro missing its spec, its spec's name, or naming an algorithm
    the registry lacks is refused: ``replay_file`` raises ``ValueError``
    naming the file and the field, and the CLI prints that one line and
    exits 2, not a traceback with the "NOT reproduced" exit code 1."""
    with open(os.path.join(CORPUS_DIR, "chaos-repro-s0-t3-lww.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        replay_file(str(path))
    assert str(path) in str(info.value) and field in str(info.value)
    assert main(["chaos", "--replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and field in err
