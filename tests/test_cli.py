"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.datasets import github_events, ndjson_lines


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.ndjson"
    path.write_text("\n".join(ndjson_lines(github_events(40, seed=1))) + "\n")
    return str(path)


@pytest.fixture()
def schema_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(
        '{"type": "object", "required": ["type", "actor"],'
        ' "properties": {"public": {"const": true}}}'
    )
    return str(path)


class TestInfer:
    def test_type_output(self, data_file, capsys):
        assert main(["infer", data_file]) == 0
        out = capsys.readouterr().out
        assert "40 documents" in out
        assert "{" in out and "actor" in out

    def test_label_equivalence(self, data_file, capsys):
        assert main(["infer", data_file, "--equivalence", "label"]) == 0
        out = capsys.readouterr().out
        assert " + " in out  # union of event variants

    def test_jsonschema_output(self, data_file, capsys):
        assert main(["infer", data_file, "--format", "jsonschema"]) == 0
        out = capsys.readouterr().out
        assert '"type": "object"' in out

    def test_typescript_output(self, data_file, capsys):
        assert main(["infer", data_file, "--format", "typescript", "--name", "Ev"]) == 0
        out = capsys.readouterr().out
        assert "interface Ev {" in out

    def test_codegen_renders_the_equivalence_it_is_given(self, tmp_path, capsys):
        # Codegen renders the inferred type, so --equivalence label keeps
        # the two record shapes apart instead of merging them by kind.
        path = tmp_path / "shapes.ndjson"
        path.write_text('{"a": 1}\n{"b": "x"}\n')
        assert main(["infer", str(path), "--format", "typescript"]) == 0
        assert capsys.readouterr().out.endswith(
            "interface Root {\n  a?: number;\n  b?: string;\n}\n"
        )
        label = ["--equivalence", "label"]
        assert main(["infer", str(path), "--format", "typescript", *label]) == 0
        assert capsys.readouterr().out.endswith(
            "type Root = {\n  a: number;\n} | {\n  b: string;\n};\n"
        )
        assert main(["infer", str(path), "--format", "swift", *label]) == 2
        assert "cannot represent union" in capsys.readouterr().err

    def test_swift_union_error_is_clean(self, tmp_path, capsys):
        path = tmp_path / "mixed.ndjson"
        path.write_text('{"v": 1}\n{"v": "x"}\n')
        assert main(["infer", str(path), "--format", "swift"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_routes_through_the_adaptive_scheduler(self, data_file, capsys):
        """--jobs N on a small corpus must produce the serial output
        (the scheduler falls back rather than paying for a pool)."""
        assert main(["infer", data_file]) == 0
        serial_out = capsys.readouterr().out
        assert main(["infer", data_file, "--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial_out
        assert main(["infer", data_file, "--jobs", "auto"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_shared_memory_is_not_an_option(self, data_file, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["infer", data_file, "--shared-memory"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --shared-memory" in capsys.readouterr().err

    def test_jobs_rejects_non_numeric_values(self, data_file, capsys):
        with pytest.raises(SystemExit):
            main(["infer", data_file, "--jobs", "fast"])
        with pytest.raises(SystemExit):
            main(["infer", data_file, "--jobs", "0"])

    def test_jobs_help_documents_the_heuristic(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        help_text = subparsers.choices["infer"].format_help()
        # argparse wraps help across lines; normalise before asserting.
        flat = " ".join(help_text.split())
        assert "adaptive scheduler" in flat
        assert "falls back to the serial fold" in flat
        assert "mmap" in flat


class TestEmptyInput:
    """Every route reports an empty or all-blank input with the serial
    fold's one message, whether or not workers would run."""

    @pytest.fixture(autouse=True)
    def workers_always_win(self, monkeypatch):
        # Two usable CPUs and free worker start-up: every --jobs plan
        # over a non-empty line list or corpus starts a pool.
        from repro.inference import distributed

        monkeypatch.setattr(distributed, "auto_jobs", lambda: 2)
        monkeypatch.setenv("REPRO_WORKER_STARTUP_SECONDS", "0")

    @pytest.mark.parametrize("content", [b"", b"\n  \n\t\n"], ids=["empty", "blank"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["infer", "FILE"],
            ["infer", "FILE", "--jobs", "2"],
            ["infer", "FILE", "--jobs", "auto"],
            ["infer", "-"],
            ["infer", "-", "--jobs", "2"],
            ["infer", "FILE", "--format", "typescript"],
            ["infer", "FILE", "--format", "typescript", "--jobs", "2"],
            ["infer", "GZIP", "--jobs", "2"],
            ["translate", "FILE"],
            ["translate", "FILE", "--jobs", "2"],
            ["translate", "FILE", "--jobs", "auto"],
            ["translate", "-", "--jobs", "2"],
        ],
        ids=" ".join,
    )
    def test_one_message(self, tmp_path, monkeypatch, capsys, argv, content):
        import gzip
        import io

        plain = tmp_path / "data.ndjson"
        plain.write_bytes(content)
        packed = tmp_path / "data.ndjson.gz"
        packed.write_bytes(gzip.compress(content))
        monkeypatch.setattr("sys.stdin", io.StringIO(content.decode()))
        paths = {"FILE": str(plain), "GZIP": str(packed)}
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot infer a schema from an empty stream\n"
        )


class TestOneErrorAcrossRoutes:
    """One reader and one line grammar for every source: the first bad
    line — malformed JSON or undecodable UTF-8 — gives the same single
    ``error:`` line from every subcommand, file or stdin, with positions
    relative to that line."""

    INPUTS = {
        "json-error-before-bad-utf8": (
            b'{"a": 1}\n{"a": \n{"b": "\xff"}\n',
            "error: expected a JSON value at line 1, column 7 (offset 6)\n",
        ),
        "bad-utf8": (
            b'{"a": 1}\n{"b": "\xff"}\n',
            "error: 'utf-8' codec can't decode byte 0xff in position 7: "
            "invalid start byte\n",
        ),
    }

    @pytest.fixture(autouse=True)
    def workers_always_win(self, monkeypatch):
        # Free worker start-up on two CPUs: every plan that can start a
        # pool does, so the speculative routes are exercised too.
        from repro.inference import distributed

        monkeypatch.setattr(distributed, "auto_jobs", lambda: 2)
        monkeypatch.setenv("REPRO_WORKER_STARTUP_SECONDS", "0")

    def test_jobs_reports_the_first_bad_line(self, tmp_path, capsys):
        """Bad lines either side of the boundary between two workers'
        ranges: the later one fails first in time, yet ``--jobs`` prints
        the first bad line's error, as the serial fold does."""
        lines = ['{"a": %d, "b": [%d, "x"]}' % (i, i) for i in range(4000)]
        lines[1999], lines[2000] = '{"first": tru', "[1, 2"
        path = tmp_path / "data.ndjson"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["infer", str(path)]) == 2
        serial = capsys.readouterr().err
        assert serial.startswith("error: unexpected character 't'")
        assert main(["infer", str(path), "--jobs", "2"]) == 2
        assert capsys.readouterr().err == serial

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize(
        "argv",
        [
            ["infer", "FILE"],
            ["infer", "FILE", "--jobs", "2"],
            ["infer", "-"],
            ["infer", "-", "--jobs", "2"],
            ["infer", "GZIP", "--jobs", "2"],
            ["validate", "FILE", "--schema", "SCHEMA"],
            ["validate", "-", "--schema", "SCHEMA"],
            ["skeleton", "FILE"],
            ["skeleton", "-"],
            ["translate", "FILE"],
            ["translate", "-"],
        ],
        ids=" ".join,
    )
    def test_same_error_line(self, tmp_path, monkeypatch, capsys, argv, name):
        import gzip
        import io

        raw, expected = self.INPUTS[name]
        plain = tmp_path / "data.ndjson"
        plain.write_bytes(raw)
        # One gzip member per line: the member-parallel attempt runs,
        # fails, and leaves the error to the serial fold.
        packed = tmp_path / "data.ndjson.gz"
        packed.write_bytes(
            b"".join(
                gzip.compress(line, mtime=0)
                for line in raw.splitlines(keepends=True)
            )
        )
        schema = tmp_path / "schema.json"
        schema.write_text("{}", encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
        paths = {"FILE": str(plain), "GZIP": str(packed), "SCHEMA": str(schema)}
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        assert capsys.readouterr().err == expected


class TestValidate:
    def test_all_valid(self, data_file, schema_file, capsys):
        assert main(["validate", data_file, "--schema", schema_file]) == 0
        assert "40/40 valid" in capsys.readouterr().out

    def test_invalid_counted_in_exit_code(self, tmp_path, schema_file, capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"type": "x", "actor": {}}\n{"nope": 1}\n{"public": false}\n')
        code = main(["validate", str(path), "--schema", schema_file])
        assert code == 2
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "1/3 valid" in out

    def test_missing_schema_file(self, data_file, capsys):
        assert main(["validate", data_file, "--schema", "/nope.json"]) == 2

    def test_malformed_line_exits_2_with_the_parser_error(
        self, tmp_path, schema_file, capsys
    ):
        from repro.errors import JsonError
        from repro.jsonvalue.parser import parse

        bad = '{"type": "x", "actor": {}, "n": 01}'
        with pytest.raises(JsonError) as caught:
            parse(bad)
        path = tmp_path / "malformed.ndjson"
        path.write_text(
            '{"type": "x", "actor": {}}\n{"nope": 1}\n'
            + bad
            + '\n{"type": "y", "actor": {}}\n'
        )
        assert main(["validate", str(path), "--schema", schema_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {caught.value}\n"
        # Verdicts stream out as lines are read: the ones before the
        # malformed line may be printed, nothing after it, no summary.
        printed = captured.out.splitlines()
        assert all(line.startswith(("line 1:", "line 2:")) for line in printed)


class TestSkeleton:
    def test_structures_printed(self, data_file, capsys):
        assert main(["skeleton", data_file, "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "skeleton of order 3" in out
        assert "structure #0" in out
        assert "document coverage" in out

    @pytest.mark.parametrize("k", [3, 1000])
    def test_one_pass_report_equals_the_oracles(self, tmp_path, k, capsys):
        """The one-pass report (structure counts, coverages from the
        counts) prints what the list-of-documents oracles compute, with
        tied counts and with k beyond the number of structures."""
        from repro.datasets import heterogeneous_collection
        from repro.inference import (
            build_skeleton,
            document_coverage,
            path_coverage,
        )

        docs = heterogeneous_collection(60, seed=3)
        path = tmp_path / "mixed.ndjson"
        path.write_text("\n".join(ndjson_lines(docs)) + "\n")
        skeleton = build_skeleton(docs, k)
        counts = [s.count for s in skeleton.structures]
        assert any(a == b for a, b in zip(counts, counts[1:]))  # ties
        expected = [
            f"# skeleton of order {skeleton.order} over {len(docs)} documents",
            f"# document coverage {document_coverage(skeleton, docs):6.1%}, "
            f"path coverage {path_coverage(skeleton, docs):6.1%}",
        ]
        for i, structure in enumerate(skeleton.structures):
            paths = ", ".join(".".join(p) for p in sorted(structure.paths)[:6])
            more = len(structure.paths) - 6
            suffix = f" (+{more} paths)" if more > 0 else ""
            expected.append(
                f"structure #{i}: {structure.count} docs — {paths}{suffix}"
            )
        assert main(["skeleton", str(path), "--k", str(k)]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        if k == 1000:
            assert skeleton.order < k

    @pytest.mark.parametrize(
        "content, out, error",
        [
            ("", "", "cannot mine structures from an empty collection"),
            (
                "{}\n{}\n",
                "# skeleton of order 1 over 2 documents\n",
                "coverage needs at least one path",
            ),
        ],
        ids=["empty", "path-free"],
    )
    def test_empty_and_path_free_corpora(self, tmp_path, content, out, error, capsys):
        path = tmp_path / "corpus.ndjson"
        path.write_text(content)
        assert main(["skeleton", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, f"error: {error}\n")

    @pytest.mark.parametrize("k", ["0", "-1", "two"])
    def test_order_must_be_a_positive_integer(self, data_file, k, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["skeleton", data_file, "--k", k])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --k" in captured.err


class TestTranslate:
    def test_size_report(self, data_file, capsys):
        assert main(["translate", data_file]) == 0
        out = capsys.readouterr().out
        assert "columnar bytes" in out
        assert "typed columns" in out

    def test_report_matches_the_dom_reference(self, data_file, capsys):
        from repro.datasets.ndjson import stream_documents
        from repro.translation import (
            schema_aware_translate,
            schema_oblivious_translate,
        )

        docs = list(stream_documents(data_file))
        aware = schema_aware_translate(docs)
        source_bytes = schema_oblivious_translate(docs).total_bytes
        ratio = source_bytes / aware.columnar_bytes
        assert main(["translate", data_file]) == 0
        assert capsys.readouterr().out == (
            f"documents:        {aware.document_count}\n"
            f"JSON text bytes:  {source_bytes}\n"
            f"columnar bytes:   {aware.columnar_bytes} ({ratio:.2f}x smaller)\n"
            f"avro row bytes:   {aware.avro_bytes}\n"
            f"typed columns:    {aware.typed_fraction:6.1%}\n"
            f"union fallbacks:  {aware.fallback_count}\n"
        )

    def test_engine_is_not_an_option(self, data_file, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["translate", data_file, "--engine", "dom"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_out_writes_artifacts(self, data_file, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["translate", data_file, "--out", str(out_dir)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert (out_dir / "rows.avro").exists()
        assert (out_dir / "columns.json").exists()
        assert (out_dir / "schema.txt").exists()

    def test_documents_with_no_paths(self, tmp_path, capsys):
        """``{}`` shreds to no columns: the report has no ratio to print."""
        path = tmp_path / "empty-objects.ndjson"
        path.write_text("{}\n{}\n")
        assert main(["translate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "documents:        2\n" in out
        assert "columnar bytes:   0\n" in out

    def test_documents_with_no_paths_out(self, tmp_path, capsys):
        path = tmp_path / "empty-objects.ndjson"
        path.write_text("{}\n{}\n")
        out_dir = tmp_path / "artifacts"
        assert main(["translate", str(path), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "columnar bytes:   0\n" in out
        assert out.count("wrote ") == 3

    def test_non_finite_float_is_an_error(self, tmp_path, capsys):
        """``1e400`` decodes to ``inf``, which ``columns.json`` cannot
        hold: the serializer's error, whichever encoder renders it."""
        path = tmp_path / "huge.ndjson"
        path.write_text('{"a": 1.5}\n{"a": 1e400}\n')
        out_dir = tmp_path / "artifacts"
        assert main(["translate", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "error: non-finite float inf is not valid JSON\n"
        )

    def test_ratio_line_when_columns_exist(self, data_file, capsys):
        assert main(["translate", data_file]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^columnar bytes:   [1-9]\d* \(\d+\.\d\dx smaller\)$",
                         out, re.MULTILINE)


class TestMatrix:
    def test_matrix_printed(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "union types" in out and "JSound" in out


class TestStdin:
    def test_dash_reads_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO('{"a": 1}\n{"a": 2}\n'))
        assert main(["infer", "-"]) == 0
        assert "{a: Int}" in capsys.readouterr().out


def _run_cli(args, *, stdin=None, env_extra=None):
    """``python -m repro ARGS`` in a fresh interpreter, stdin as bytes."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


class TestDeepDocuments:
    """Documents 510 levels deep infer under the default recursion limit:
    the merge runs from a work stack and ``size()`` from an explicit one,
    so only the parser's 512-level limit bounds depth."""

    DEEP = b'[{"a":' * 255 + b"1" + b"}]" * 255
    # The same depth, ending in a record with a string leaf under "b".
    TWIN = b'[{"a":' * 254 + b'[{"b":"s"}]' + b"}]" * 254
    # (schema size, type): 254 levels of [{a: ...}] at 3 nodes each,
    # around the merged innermost array.
    EXPECTED = {
        "kind": (768, "[{a: " * 254 + "[{a?: Int, b?: Str}]" + "}]" * 254),
        "label": (770, "[{a: " * 254 + "[{a: Int} + {b: Str}]" + "}]" * 254),
    }

    @pytest.mark.parametrize("equivalence", ["kind", "label"])
    def test_file_and_stdin_print_the_type(self, tmp_path, equivalence):
        raw = self.DEEP + b"\n" + self.TWIN + b"\n"
        path = tmp_path / "deep.ndjson"
        path.write_bytes(raw)
        args = ["--equivalence", equivalence]
        from_file = _run_cli(["infer", str(path), *args])
        from_stdin = _run_cli(["infer", "-", *args], stdin=raw)
        assert from_stdin == from_file
        code, stdout, stderr = from_file
        assert (code, stderr) == (0, b"")
        size, text = self.EXPECTED[equivalence]
        assert stdout.decode().splitlines() == [
            f"# 2 documents, schema size {size}",
            text,
        ]


class TestLoneSurrogates:
    """The parser keeps a lone surrogate escape (``"\\ud800"``), which no
    UTF-8 output can hold: wherever one must be written — a printed key,
    an Avro string, ``columns.json`` — the job prints what it printed
    before, then one ``error:`` line, and exits 2."""

    IN_KEY = b'{"\\ud800": 1}\n'
    IN_VALUE = b'{"a": "x\\ud800y"}\n{"a": "ok"}\n'
    OUTPUT_ERROR = (
        r"error: 'utf-8' codec can't encode character '\\ud800' "
        r"in position \d+: surrogates not allowed\n"
    )
    AVRO_ERROR = (
        "error: cannot encode string 'x\\ud800y' as UTF-8: "
        "surrogates not allowed\n"
    )

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["infer"], "# 1 documents, schema size 3\n"),
            (["skeleton"], "# skeleton of order 1 over 1 documents\n"),
            # The report prints after the artifacts, so nothing before.
            (["translate", "--out", "OUT"], ""),
        ],
        ids=["infer", "skeleton", "translate-out"],
    )
    def test_key(self, tmp_path, argv, prefix):
        path = tmp_path / "key.ndjson"
        path.write_bytes(self.IN_KEY)
        argv = [argv[0], str(path)] + [
            str(tmp_path / "out") if arg == "OUT" else arg for arg in argv[1:]
        ]
        code, stdout, stderr = _run_cli(argv)
        assert code == 2
        assert stdout.decode().startswith(prefix)
        assert re.fullmatch(self.OUTPUT_ERROR, stderr.decode())

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["infer"], "# 2 documents, schema size 3\n{a: Str}\n"),
            (["skeleton"], "# skeleton of order 1 over 2 documents\n"),
        ],
        ids=["infer", "skeleton"],
    )
    def test_value_is_typed_not_printed(self, tmp_path, argv, expected):
        path = tmp_path / "value.ndjson"
        path.write_bytes(self.IN_VALUE)
        code, stdout, stderr = _run_cli([*argv, str(path)])
        assert (code, stderr) == (0, b"")
        assert stdout.decode().startswith(expected)

    @pytest.mark.parametrize(
        "argv",
        [["translate", "FILE"], ["translate", "-"],
         ["translate", "FILE", "--out", "OUT"]],
        ids=" ".join,
    )
    def test_value_in_an_avro_row(self, tmp_path, argv):
        path = tmp_path / "value.ndjson"
        path.write_bytes(self.IN_VALUE)
        paths = {"FILE": str(path), "OUT": str(tmp_path / "out")}
        code, stdout, stderr = _run_cli(
            [paths.get(arg, arg) for arg in argv], stdin=self.IN_VALUE
        )
        assert (code, stdout) == (2, b"")
        assert stderr.decode() == self.AVRO_ERROR


class TestStdinMatchesFile:
    @pytest.mark.parametrize(
        "raw",
        [b'{"a": 1}\r{"b": 2}\n', b'{"a": "\xff"}\n'],
        ids=["lone-cr", "invalid-utf8"],
    )
    @pytest.mark.parametrize("locale", [None, "C"])
    def test_same_output_from_stdin_and_file(self, tmp_path, raw, locale):
        path = tmp_path / "data.ndjson"
        path.write_bytes(raw)
        env = {"LC_ALL": locale} if locale else None
        from_file = _run_cli(["infer", str(path)], env_extra=env)
        from_stdin = _run_cli(["infer", "-"], stdin=raw, env_extra=env)
        assert from_stdin == from_file
        if raw.startswith(b'{"a": 1}'):
            assert from_file[0] == 0
            assert b"2 documents" in from_file[1]
        else:
            assert from_file[0] == 2
            assert from_file[2].startswith(b"error: ")


    @pytest.mark.parametrize(
        "raw",
        [
            # Fallback columns a and b.x, spelled non-canonically.
            b'{"a": 1, "b": {"x" : 1e2}}\n{"a": "s", "b": {"x": "A"}}\n',
            b'{"a":1}\n{"a":"\xff"}\n',
        ],
        ids=["non-canonical", "invalid-utf8-line-2"],
    )
    def test_same_translation_from_stdin_and_file(self, tmp_path, raw):
        path = tmp_path / "data.ndjson"
        path.write_bytes(raw)
        outputs = []
        for name, args, stdin in [
            ("file", [str(path)], None),
            ("stdin", ["-"], raw),
        ]:
            out = tmp_path / name
            code, stdout, stderr = _run_cli(
                ["translate", *args, "--out", str(out)], stdin=stdin
            )
            artifacts = {
                artifact: (out / artifact).read_bytes()
                for artifact in ("rows.avro", "columns.json", "schema.txt")
                if (out / artifact).exists()
            }
            stdout = stdout.replace(str(out).encode(), b"OUT")
            outputs.append((code, stdout, stderr, artifacts))
        assert outputs[1] == outputs[0]
        code, _, stderr, artifacts = outputs[0]
        if b"\xff" in raw:
            assert code == 2
            assert stderr == (
                b"error: 'utf-8' codec can't decode byte 0xff in position 6: "
                b"invalid start byte\n"
            )
        else:
            assert code == 0
            assert b'"values":["1e2","\\"A\\""]' in artifacts["columns.json"]


class TestInvalidUtf8:
    @pytest.fixture()
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_bytes(b'{"a": "\xff"}\n')
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["infer"],
            ["infer", "--jobs", "auto"],
            ["validate", "--schema", "SCHEMA"],
            ["translate"],
            ["skeleton", "--k", "4"],
        ],
        ids=["infer", "infer-jobs", "validate", "translate", "skeleton"],
    )
    def test_exits_2_with_an_error_line(
        self, bad_file, schema_file, argv, capsys
    ):
        argv = [schema_file if arg == "SCHEMA" else arg for arg in argv]
        assert main([argv[0], bad_file, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 7: "
            "invalid start byte\n"
        )
