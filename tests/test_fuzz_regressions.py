"""Replay every checked-in fuzz corpus entry through the full oracle.

Each JSON file under ``tests/corpus/`` is a minimized program that once
exposed a real bug (``kind: regression``) or pins down a tricky shape
the fuzzer should keep covering (``kind: coverage``).  Replaying them
through eager plus every registered pipeline — bit-exact outputs, graph
and profiler invariants, IR round-trip — is the cheapest possible
guard against those bugs coming back.

New entries come from ``python -m repro.tools.fuzz --save-corpus
tests/corpus`` (see DESIGN.md); this test picks them up automatically.
"""

import json
from pathlib import Path

import pytest

from repro.frontend import script
from repro.fuzz.oracle import CorpusProgram, materialize, run_oracle
from repro.ir import parse_graph, print_graph

CORPUS_DIR = Path(__file__).parent / "corpus"
ENTRIES = sorted(CORPUS_DIR.glob("*.json"))


def _load(path):
    return json.loads(path.read_text())


def test_corpus_is_populated():
    assert len(ENTRIES) >= 5, (
        "tests/corpus/ must hold at least five minimized entries")


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_replays_clean(path):
    entry = _load(path)
    program = CorpusProgram(seed=entry["seed"], source=entry["source"],
                            name=entry.get("fn_name", "f"),
                            raises=entry.get("raises"))
    failure = run_oracle(program)
    assert failure is None, (
        f"corpus regression {entry['name']} resurfaced "
        f"(originally: {entry.get('note', 'n/a')})\n{failure.describe()}")


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_metadata_complete(path):
    entry = _load(path)
    for field in ("name", "seed", "source", "ir", "kind", "found_by"):
        assert field in entry, f"{path.name} lacks {field!r}"
    assert entry["name"] == path.stem


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_ir_matches_source(path):
    """The stored IR is exactly what scripting the source yields today,
    and it round-trips through the textual parser."""
    entry = _load(path)
    graph = script(materialize(entry["source"],
                               entry.get("fn_name", "f"))).graph
    text = print_graph(graph)
    assert text == entry["ir"], (
        f"{path.name}: stored IR is stale; regenerate the entry")
    assert print_graph(parse_graph(text)) == text
