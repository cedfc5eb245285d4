"""The benchmark suite's huge-array inputs, built at full size.

``benchmarks/suite/corpora.py`` rotates one seed's GitHub events until
the subtree splitter's first speculative attempt carves the array (the
``array-carved`` input) or declines it (``array-declined``), and raises
when no rotation gives the wanted outcome.  The suite's smoke test runs
at a scale too small to split, so only a full-size build shows that a
splitter change still leaves both routes to measure.  The module is
imported as the suite runs it, unedited.
"""

import importlib.util
from pathlib import Path

import pytest

CORPORA = Path(__file__).resolve().parents[1] / "benchmarks" / "suite" / "corpora.py"


@pytest.fixture(scope="module")
def corpora():
    spec = importlib.util.spec_from_file_location("suite_corpora", CORPORA)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("outcome", ["declined", "carved"])
def test_full_size_ingest_array_has_its_outcome(tmp_path, corpora, outcome):
    task = corpora.task_ingest_array(tmp_path, 1, corpora.ARRAY_EVENTS, outcome)
    path = tmp_path / f"github-array-{outcome}.json"
    assert task["jobs"][0]["input_bytes"] == path.stat().st_size > 4 << 20
    assert corpora.split_outcome(path) == outcome
