"""Every function and class under ``src/repro`` has a use.

A name defined in the package must occur in the repository's tracked
text files (code, docs, configuration) more often than it is defined;
otherwise nothing calls, exports, tests or documents it, and it is an
orphan to delete.  Dunders are exempt (the language calls them), and so
are the names ``getattr`` reaches by a computed string, listed below.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
from collections import Counter
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
SUFFIXES = (".py", ".md", ".yml", ".toml", ".json", ".txt")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Reached only as ``getattr(self, "_walk_" + kind)``.
GETATTR_REACHED = {"translation/stream.py": re.compile(r"_walk_[a-z]+")}


def _tracked_files() -> list[Path]:
    """The repository's tracked text files (every text file under the
    root, hidden directories and caches aside, outside a git checkout)."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z"],
            cwd=ROOT, capture_output=True, check=True, timeout=60,
        ).stdout.decode("utf-8").split("\0")
    except (OSError, subprocess.SubprocessError):
        listed = []
        for folder, dirs, names in os.walk(ROOT):
            dirs[:] = [d for d in dirs if not d.startswith(".") and d != "__pycache__"]
            listed += [os.path.relpath(os.path.join(folder, n), ROOT) for n in names]
    return [ROOT / name for name in listed if name.endswith(SUFFIXES)]


def _definitions() -> Counter:
    """``(module path, name)`` of every ``def`` and ``class`` in the
    package, counted (a method name may be defined in several classes)."""
    found: Counter = Counter()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                found[module, node.name] += 1
    return found


def test_every_definition_has_a_use():
    occurrences: Counter = Counter()
    for path in _tracked_files():
        if path.is_file():
            text = path.read_text(encoding="utf-8", errors="replace")
            occurrences.update(IDENTIFIER.findall(text))
    definitions = _definitions()
    defined: Counter = Counter()
    for (_module, name), count in definitions.items():
        defined[name] += count
    orphans = sorted(
        f"{module}::{name}"
        for module, name in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not (
            module in GETATTR_REACHED
            and GETATTR_REACHED[module].fullmatch(name)
        )
        and occurrences[name] <= defined[name]
    )
    assert orphans == []
