"""Synthetic dataset generators with controllable structural statistics.

Substitutes for the public corpora the tutorial's examples use (Twitter,
GitHub, NYT, data.gov) — see DESIGN.md §1 for the substitution argument.
All generators are deterministic under ``seed``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CollectionSpec": "generator",
    "Rng": "generator",
    "generate_collection": "generator",
    "heterogeneous_collection": "generator",
    "ndjson_lines": "generator",
    "CompressedCorpusError": "compressed",
    "CorruptStreamError": "compressed",
    "TruncatedStreamError": "compressed",
    "compress_corpus": "compressed",
    "compress_member": "compressed",
    "detect_compression": "compressed",
    "iter_line_blocks": "compressed",
    "member_candidates": "compressed",
    "zstd_available": "compressed",
    "MmapCorpus": "ndjson",
    "iter_ndjson_lines": "ndjson",
    "open_corpus": "ndjson",
    "read_ndjson_lines": "ndjson",
    "stream_documents": "ndjson",
    "stream_types": "ndjson",
    "write_ndjson": "ndjson",
    "tweets": "twitter",
    "github_events": "github:events",
    "nyt_articles": "nyt:articles",
    "opendata_catalog": "opendata:catalog",
})
