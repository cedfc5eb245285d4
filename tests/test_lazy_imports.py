"""Lazy package exports: each CLI route imports only the modules it runs,
and the export tables stay faithful to the modules they name.

No route imports ``dataclasses`` (or ``inspect``, which it pulls in):
the record classes of every module a route loads are plain classes, and
a ``--jobs auto`` run whose plan is serial never loads
``multiprocessing``.

Every check runs in a fresh interpreter, since what a process has
already imported is exactly what is under test.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.datasets import github_events, ndjson_lines

SRC = Path(repro.__file__).resolve().parents[1]

LAZY_PACKAGES = [
    "repro.datasets",
    "repro.inference",
    "repro.jsonschema",
    "repro.jsonvalue",
    "repro.parsing",
    "repro.pl",
    "repro.translation",
    "repro.types",
]


def _python(args, *, stdin=None, env=None):
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, env=env,
        timeout=120,
    )


# ---------------------------------------------------------------------------
# route import sets
# ---------------------------------------------------------------------------

# Never on a benchmarked route: the other schema languages, the E1
# feature matrix, the surveyed inference systems, the dataset
# generators, and the witness generators.
EVERY_ROUTE = (
    "repro.joi",
    "repro.jsound",
    "repro.pl.features",
    *(f"repro.inference.{name}" for name in (
        "spark", "mongodb", "skinfer", "studio3t", "couchbase", "skeleton",
        "relational", "profiling", "counting",
    )),
    *(f"repro.datasets.{name}" for name in (
        "generator", "twitter", "github", "nyt", "opendata",
    )),
    "repro.jsonschema.generate",
    "repro.types.generate",
)
# A serial infer or translate plans nothing and renders no codegen or
# JSON Schema.
SERIAL_FOLD = (
    "repro.pl",
    "repro.jsonschema",
    "repro.inference.distributed",
    "repro.inference.calibration",
)
# Validation parses documents and checks them: no type algebra.
VALIDATE = ("repro.types", "repro.inference", "repro.translation")
# Class generation costs each process the import (with ``inspect``,
# ``ast``, ``dis`` and ``tokenize``) and about half a millisecond per
# class: no route pays it.
STARTUP = ("dataclasses", "inspect")


_RUN_ROUTE = textwrap.dedent("""
    import runpy, sys

    sys.argv = ["repro", *sys.argv[1:]]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        print("loaded:", *sorted(sys.modules), file=sys.stderr)
""")


def _loaded_modules(args, *, stdin=None, env=None) -> set[str]:
    """The modules, ``repro`` and stdlib alike, that ``python -m repro
    ARGS`` has imported when it exits."""
    done = _python(["-c", _RUN_ROUTE, *args], stdin=stdin, env=env)
    assert done.returncode == 0, done.stderr.decode()
    last = done.stderr.decode().splitlines()[-1].split()
    assert last[0] == "loaded:"
    modules = set(last[1:])
    assert "repro.cli" in modules
    return modules


def _forbidden(modules: set[str], prefixes) -> list[str]:
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("routes")
    data = root / "events.ndjson"
    data.write_text("\n".join(ndjson_lines(github_events(30, seed=2))) + "\n")
    schema = root / "schema.json"
    schema.write_text('{"type": "object", "required": ["type"]}')
    return root, data, schema


class TestRouteImports:
    def test_infer_file(self, corpus):
        _, data, _ = corpus
        modules = _loaded_modules(["infer", str(data)])
        assert _forbidden(modules, EVERY_ROUTE + SERIAL_FOLD + STARTUP) == []
        assert "repro.inference.streaming" in modules

    def test_infer_stdin(self, corpus):
        _, data, _ = corpus
        modules = _loaded_modules(["infer", "-"], stdin=data.read_bytes())
        assert _forbidden(modules, EVERY_ROUTE + SERIAL_FOLD + STARTUP) == []

    def test_validate(self, corpus):
        _, data, schema = corpus
        modules = _loaded_modules(
            ["validate", str(data), "--schema", str(schema)]
        )
        assert _forbidden(modules, EVERY_ROUTE + VALIDATE + STARTUP) == []
        assert "repro.jsonschema.validator" in modules

    def test_translate_out(self, corpus):
        root, data, _ = corpus
        modules = _loaded_modules(
            ["translate", str(data), "--out", str(root / "artifacts")]
        )
        assert _forbidden(modules, EVERY_ROUTE + SERIAL_FOLD + STARTUP) == []
        assert "repro.translation.stream" in modules

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_translate_delegation_skips_fadjs(self, tmp_path, source):
        # A duplicate key in a record with a JSON-text fallback beneath it
        # declines the stream walk, so the first line is translated by
        # the DOM path: it parses with jsonvalue.parse, not the Fad.js
        # speculative decoder.
        raw = b'{"a":1,"a":2,"b":1}\n{"a":"s","b":2}\n'
        data = tmp_path / "dup.ndjson"
        data.write_bytes(raw)
        if source == "file":
            modules = _loaded_modules(["translate", str(data)])
        else:
            modules = _loaded_modules(["translate", "-"], stdin=raw)
        assert _forbidden(modules, EVERY_ROUTE + SERIAL_FOLD + STARTUP) == []
        assert "repro.translation.stream" in modules
        assert "repro.parsing.fadjs" not in modules


class TestJobsAutoImports:
    """``--jobs auto`` plans, and may start a pool; it still generates no
    classes, and loads ``multiprocessing`` only for a pool."""

    @pytest.fixture()
    def profile(self, tmp_path):
        # An existing calibration profile: no plan measures start-up.
        path = tmp_path / "sched.json"
        path.write_text('{"worker_startup_seconds": 0.0}')
        return {"REPRO_SCHED_PROFILE": str(path)}

    def test_gzip_members(self, tmp_path, profile):
        from repro.datasets import compress_corpus

        packed = tmp_path / "events.ndjson.gz"
        lines = ndjson_lines(github_events(40, seed=3))
        assert compress_corpus(packed, lines, member_lines=10) == 4
        modules = _loaded_modules(
            ["infer", str(packed), "--jobs", "auto"], env=profile
        )
        assert _forbidden(modules, EVERY_ROUTE + STARTUP) == []
        assert "repro.inference.distributed" in modules

    def test_line_parallel_file(self, corpus, profile):
        _, data, _ = corpus
        modules = _loaded_modules(["infer", str(data), "--jobs", "auto"], env=profile)
        assert _forbidden(modules, EVERY_ROUTE + STARTUP) == []
        assert "repro.inference.distributed" in modules

    def test_serial_plan_loads_no_multiprocessing(self, tmp_path, profile):
        one = tmp_path / "one.ndjson"
        one.write_text('{"a": 1}\n')
        modules = _loaded_modules(["infer", str(one), "--jobs", "auto"], env=profile)
        assert _forbidden(modules, EVERY_ROUTE + STARTUP + ("multiprocessing",)) == []
        assert "repro.inference.distributed" in modules


# ---------------------------------------------------------------------------
# export tables
# ---------------------------------------------------------------------------


def _export_table(package: str) -> dict[str, str]:
    """The table the package's ``__init__`` passes to ``lazy_exports``."""
    init = SRC / package.replace(".", "/") / "__init__.py"
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
        ):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{init} calls no lazy_exports")


_FAITHFUL = textwrap.dedent("""
    import importlib, pkgutil, sys

    package_name, table = sys.argv[1], eval(sys.argv[2])
    package = importlib.import_module(package_name)
    eager = set(vars(package))
    assert list(package.__all__) == list(table)

    # Names first reached through the package (the lazy path) are the
    # objects their source modules define.
    for name in package.__all__:
        value = getattr(package, name)
        module_name, colon, attr = table[name].partition(":")
        source = importlib.import_module(f"{package_name}.{module_name}")
        if colon and not attr:
            expected = source
        else:
            expected = getattr(source, attr or name)
        assert value is expected, name

    assert set(dir(package)) >= set(package.__all__)
    namespace = {}
    exec(f"from {package_name} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(package.__all__)

    assert not hasattr(package, "no_such_export")
    try:
        package.no_such_export
    except AttributeError as exc:
        assert "no_such_export" in str(exc)
    else:
        raise AssertionError("unknown name resolved")

    # An export named like a submodule is either that submodule or bound
    # eagerly, and every submodule import leaves it as it was.
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    shadowed = {name: getattr(package, name) for name in submodules & set(table)}
    for name in shadowed:
        assert table[name] == f"{name}:" or name in eager, name
    for sub in sorted(submodules):
        importlib.import_module(f"{package_name}.{sub}")
    for name, value in shadowed.items():
        assert getattr(package, name) is value, name
    print(sorted(shadowed))
""")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_export_table_is_faithful(package):
    done = _python(["-c", _FAITHFUL, package, repr(_export_table(package))])
    assert done.returncode == 0, done.stderr.decode()
    if package == "repro.types":
        # The functions, not their modules, after every submodule import.
        assert done.stdout.decode().strip() == "['intern', 'merge', 'simplify']"

