"""The CLI as a process: ddlab.cli.run's exit path and what a plain run imports.

run() flushes both streams and leaves with os._exit, skipping interpreter
teardown. These tests start real ``python -m ddlab.cli`` processes and
check that the bytes, exit codes and stderr are those of main(), including
output larger than a pipe buffer and a reader that has gone away. Children
run with block-buffered stdout (no PYTHONUNBUFFERED), as a shell pipeline
gives them.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ddlab.cli
from ddlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
VERIFY = ROOT / "tests" / "data" / "verify"
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": str(ROOT / "src")}


def ddlab_process(*argv: str, cwd: Path, stdout=subprocess.PIPE, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ddlab.cli", *argv], cwd=cwd, env=ENV, stdout=stdout, stderr=subprocess.PIPE,
        **kwargs,
    )


def test_console_script_goes_through_run(tmp_path):
    # what the installed `ddlab` wrapper does with its [project.scripts] entry
    entry = re.search(r'^ddlab = "(.+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert entry is not None and entry.group(1) == "ddlab.cli:run"
    wrapper = "import sys; from ddlab.cli import run; sys.argv[0] = 'ddlab'; sys.exit(run())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "verify", "--input", str(VERIFY / "fractional.csv")],
        cwd=tmp_path, env=ENV, capture_output=True,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (VERIFY / "fractional.txt").read_bytes()


def test_output_larger_than_a_pipe_buffer_is_complete(tmp_path):
    argv = ("gen", "--generator", "orthogonal", "--n", "300", "--m", "300")
    piped = ddlab_process(*argv, cwd=tmp_path)
    written = ddlab_process(*argv, "--output", "mat.csv", cwd=tmp_path)
    assert piped.returncode == written.returncode == 0
    assert piped.stderr == written.stderr == written.stdout == b""
    assert len(piped.stdout) > 300_000
    assert piped.stdout == (tmp_path / "mat.csv").read_bytes()


@pytest.mark.parametrize(
    "text, argv, code",
    [
        pytest.param(None, ("verify", "--input", str(VERIFY / "fractional.csv")), 0, id="pass"),
        pytest.param("n=3,m=1\n1\n1\n1\n", ("verify", "--input", "in.csv"), 1, id="identity-failed"),
        pytest.param("k=2,c=1\nP1,zero\nP2,0,1\n", ("stats", "--input", "in.csv"), 2, id="bad-literal"),
        pytest.param(None, ("stats",), 2, id="argparse"),
    ],
)
def test_exit_code_and_streams_match_main(text, argv, code, tmp_path, capsys, monkeypatch):
    if text is not None:
        (tmp_path / "in.csv").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    try:
        in_process = main(list(argv))
    except SystemExit as exc:  # argparse leaves main by SystemExit, and so does run()
        in_process = exc.code
    captured = capsys.readouterr()
    proc = ddlab_process(*argv, cwd=tmp_path, text=True)
    assert proc.returncode == in_process == code
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
    assert (proc.stdout != "") == (code < 2) and (proc.stderr != "") == (code == 2)


def test_verify_json_matches_the_recording(tmp_path):
    proc = ddlab_process("verify", "--input", str(VERIFY / "fractional.csv"), "--json", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (VERIFY / "fractional.json").read_bytes()


def _with_closed_stdout(*argv: str, cwd: Path) -> tuple[int, str]:
    # the read end is closed before the child starts, so every write to
    # stdout fails with EPIPE, as when a reader such as `head -c 1` has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = ddlab_process(*argv, cwd=cwd, stdout=write_end, text=True)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def test_closed_stdout_takes_the_usual_exit_path(tmp_path):
    # a write that overflows the buffer fails inside main: an input error
    code, err = _with_closed_stdout("gen", "--generator", "orthogonal", "--n", "300", "--m", "300", cwd=tmp_path)
    assert (code, err) == (2, "error: [Errno 32] Broken pipe\n")
    # buffered output fails at run()'s flush: the interpreter's own report and code
    code, err = _with_closed_stdout("verify", "--input", str(VERIFY / "fractional.csv"), cwd=tmp_path)
    assert code == 120
    assert err.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert err.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


class _Exited(Exception):
    pass


def _fake_exit(code):
    raise _Exited(code)


class _Stream:
    """A stand-in for sys.stdout or sys.stderr that logs its flushes."""

    def __init__(self, name: str, log: list, error: OSError | None = None) -> None:
        self.name, self.log, self.error = name, log, error

    def flush(self) -> None:
        self.log.append(self.name)
        if self.error is not None:
            raise self.error


def test_run_exits_with_mains_code_after_flushing(monkeypatch):
    flushed = []
    monkeypatch.setattr(ddlab.cli, "main", lambda: 3)
    monkeypatch.setattr(ddlab.cli.os, "_exit", _fake_exit)
    monkeypatch.setattr(sys, "stdout", _Stream("out", flushed))
    monkeypatch.setattr(sys, "stderr", _Stream("err", flushed))
    with pytest.raises(_Exited) as exc:
        ddlab.cli.run()
    assert exc.value.args == (3,)
    assert flushed == ["out", "err"]


def test_run_falls_back_to_sys_exit_when_a_flush_fails(monkeypatch):
    flushed = []
    monkeypatch.setattr(ddlab.cli, "main", lambda: 0)
    monkeypatch.setattr(ddlab.cli.os, "_exit", _fake_exit)
    monkeypatch.setattr(sys, "stdout", _Stream("out", flushed, BrokenPipeError(32, "Broken pipe")))
    with pytest.raises(SystemExit) as exc:
        ddlab.cli.run()
    assert exc.value.code == 0
    assert flushed == ["out"]


def test_run_lets_exceptions_from_main_escape(monkeypatch):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(ddlab.cli, "main", interrupted)
    monkeypatch.setattr(ddlab.cli.os, "_exit", _fake_exit)
    with pytest.raises(KeyboardInterrupt):
        ddlab.cli.run()


JSON_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, sys
    from ddlab.cli import main

    runs = [
        ["gen", "--n", "12", "--m", "12", "--seed", "3", "--output", "cfg.csv"],
        ["verify", "--input", "cfg.csv"],
        ["reduce", "--input", "cfg.csv", "--output", "gamma.csv"],
        ["sweep", "--n-list", "8", "--m-list", "8"],
    ]
    codes = []
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))
    print(repr((codes, "json" in sys.modules)))
    """
)


def test_plain_commands_never_import_json(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", JSON_SCRIPT], cwd=tmp_path, env=ENV, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(([0, 0, 0, 0], False)) + "\n"
