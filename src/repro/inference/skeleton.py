"""Skeleton-based schema summaries (Wang et al., VLDB '15; tutorial §2).

"A skeleton is a collection of trees describing structures that frequently
appear in the objects of a JSON data collection.  In particular, the
skeleton **may totally miss information about paths that can be traversed
in some of the JSON objects**."

The reproduction:

- each document is abstracted to its **structure**: the frozenset of its
  generalized root-to-leaf paths (array positions → ``[*]``), which is the
  canonical-form idea behind the paper's eSiBu-Tree;
- equal structures are grouped and counted; the *skeleton of order k* keeps
  the ``k`` most frequent structures (rendered back as trees);
- **document coverage** = fraction of documents whose structure is in the
  skeleton; **path coverage** = fraction of (document, path) occurrences
  whose path appears somewhere in the skeleton.  E6 reproduces the
  coverage-vs-k curve: heavily clustered collections saturate quickly.

``repro skeleton`` reads its input once: :func:`rank_structures` and
:func:`counted_coverage` work from structure counts, and the list
functions below stay as their oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import InferenceError
from repro.jsonvalue.model import iter_paths

PathKey = tuple[str, ...]


def structure_of(document: Any) -> frozenset[PathKey]:
    """The generalized leaf-path set of a document (its structure)."""
    paths: set[PathKey] = set()
    for path, _ in iter_paths(document):
        paths.add(tuple("[*]" if isinstance(step, int) else step for step in path))
    return frozenset(paths)


@dataclass(frozen=True)
class Structure:
    """One distinct structure with its support count."""

    paths: frozenset[PathKey]
    count: int


@dataclass
class Skeleton:
    """The top-k structures of a collection."""

    structures: list[Structure]
    document_count: int

    @property
    def order(self) -> int:
        return len(self.structures)

    def all_paths(self) -> frozenset[PathKey]:
        out: set[PathKey] = set()
        for s in self.structures:
            out |= s.paths
        return frozenset(out)

    def covers_document(self, document: Any) -> bool:
        """True if the document's exact structure is in the skeleton."""
        return structure_of(document) in {s.paths for s in self.structures}

    def covers_path(self, path: PathKey) -> bool:
        return path in self.all_paths()

    def as_trees(self) -> list[dict]:
        """Render each structure as a nested-dict tree (for display)."""
        return [_paths_to_tree(s.paths) for s in self.structures]


def _paths_to_tree(paths: frozenset[PathKey]) -> dict:
    root: dict = {}
    for path in sorted(paths):
        node = root
        for step in path:
            node = node.setdefault(step, {})
    return root


def mine_structures(documents: Iterable[Any]) -> list[Structure]:
    """Group documents by structure, most frequent first."""
    return rank_structures(Counter(structure_of(doc) for doc in documents))


def rank_structures(counts: Mapping[frozenset[PathKey], int]) -> list[Structure]:
    """Counted structures, most frequent first (ties by sorted paths)."""
    if not counts:
        raise InferenceError("cannot mine structures from an empty collection")
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], sorted(kv[0])))
    return [Structure(paths, count) for paths, count in ordered]


def build_skeleton(documents: Iterable[Any], k: int) -> Skeleton:
    """The skeleton of order ``k``: the k most frequent structures."""
    docs = list(documents)
    structures = mine_structures(docs)
    return Skeleton(structures=structures[:k], document_count=len(docs))


def document_coverage(skeleton: Skeleton, documents: Iterable[Any]) -> float:
    """Fraction of documents whose structure the skeleton contains."""
    total = 0
    covered = 0
    structure_set = {s.paths for s in skeleton.structures}
    for doc in documents:
        total += 1
        if structure_of(doc) in structure_set:
            covered += 1
    if not total:
        raise InferenceError("coverage needs at least one document")
    return covered / total


def path_coverage(skeleton: Skeleton, documents: Iterable[Any]) -> float:
    """Fraction of (document, path) occurrences present in the skeleton."""
    skeleton_paths = skeleton.all_paths()
    total = 0
    covered = 0
    for doc in documents:
        for path in structure_of(doc):
            total += 1
            if path in skeleton_paths:
                covered += 1
    if not total:
        raise InferenceError("coverage needs at least one path")
    return covered / total


def counted_coverage(
    skeleton: Skeleton, counts: Mapping[frozenset[PathKey], int]
) -> tuple[float, float]:
    """``(document_coverage, path_coverage)`` from structure counts:
    Σ support of the skeleton / documents, and Σ count·|s ∩ skeleton
    paths| / Σ count·|s|."""
    documents = sum(counts.values())
    if not documents:
        raise InferenceError("coverage needs at least one document")
    covered = sum(counts.get(s.paths, 0) for s in skeleton.structures)
    skeleton_paths = skeleton.all_paths()
    paths = sum(count * len(s) for s, count in counts.items())
    if not paths:
        raise InferenceError("coverage needs at least one path")
    hits = sum(count * len(s & skeleton_paths) for s, count in counts.items())
    return covered / documents, hits / paths
