"""The `python -m repro` command-line interface."""

import pytest

from repro.__main__ import main

PROGRAM = '''
def main() { println("hello"); return 0; }
def square(x) { return x * x; }
'''


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.mj"
    path.write_text(PROGRAM)
    return str(path)


def test_run_default_main(program, capsys):
    assert main(["run", program]) == 0
    out = capsys.readouterr().out
    assert "hello" in out
    assert "0" in out


def test_run_named_function_with_args(program, capsys):
    assert main(["run", program, "square", "7"]) == 0
    assert "49" in capsys.readouterr().out


def test_jit_runs_compiled(program, capsys):
    assert main(["jit", program, "square", "6"]) == 0
    assert "36" in capsys.readouterr().out


def test_jit_show_code(program, capsys):
    assert main(["jit", program, "square", "2", "--show-code"]) == 0
    captured = capsys.readouterr()
    assert "__compiled" in captured.err


def test_dis_shows_bytecode(program, capsys):
    assert main(["dis", program]) == 0
    out = capsys.readouterr().out
    assert "class Main" in out
    assert "static method square/1" in out
    assert "mul" in out


def test_dump_shows_generated_code(program, capsys):
    assert main(["dump", program, "square"]) == 0
    out = capsys.readouterr().out
    assert "def __compiled" in out


def test_string_args_pass_through(tmp_path, capsys):
    path = tmp_path / "s.mj"
    path.write_text('def shout(s) { return s + "!"; }')
    assert main(["run", str(path), "shout", "hey"]) == 0
    assert "hey!" in capsys.readouterr().out


# -- persistent cache / compile service flags ---------------------------------

def _jit_stats(capsys):
    import json
    err = capsys.readouterr().err
    return json.loads(err[err.index("{"):])


def test_jit_cache_dir_cold_then_warm(program, capsys, tmp_path):
    cache = str(tmp_path / "cc")
    assert main(["jit", program, "square", "6", "--cache-dir", cache,
                 "--jit-stats"]) == 0
    cold = _jit_stats(capsys)
    assert cold["codecache"]["enabled"] is True
    assert cold["codecache"]["stores"] == 1
    assert cold["compiles"] == 1

    assert main(["jit", program, "square", "6", "--cache-dir", cache,
                 "--jit-stats"]) == 0
    warm = _jit_stats(capsys)
    assert warm["codecache"]["hits"] == 1
    assert warm["compiles"] == 0


def test_jit_no_persist_flag(program, capsys, tmp_path):
    import os
    cache = str(tmp_path / "cc")
    assert main(["jit", program, "square", "6", "--cache-dir", cache,
                 "--no-persist", "--jit-stats"]) == 0
    stats = _jit_stats(capsys)
    assert stats["codecache"]["enabled"] is False
    assert not os.path.exists(cache)


def test_jit_compile_workers_flag(program, capsys):
    assert main(["jit", program, "square", "6", "--compile-workers", "2",
                 "--tier", "0", "--hot-threshold", "1", "--repeat", "8",
                 "--jit-stats"]) == 0
    captured = capsys.readouterr()
    assert "36" in captured.out
    import json
    stats = json.loads(captured.err[captured.err.index("{"):])
    assert stats["server"]["workers"] == 2
