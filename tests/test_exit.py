"""How a CLI process ends, and a failed write of the output.

The entry point (`cli.run`, which `python -m wittburnside` and the
`wittburnside` script call) runs `cli.main`, flushes stdout and stderr and
ends the process with `os._exit`, so the interpreter's teardown never runs:
the process prints what `cli.main` prints in process and exits with its
code.  The library, and `cli.main` called in process, keep the default
collector.  An output that cannot be written ends the process with one line
on stderr and exit 4, never a traceback or exit 1 (which a failing `verify`
means).
"""
import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import wittburnside
from wittburnside.cli import main

# the argv of a CLI process; each case's exit code
ARGVS = {
    ("group", "info", "--group", "C2"): 0,
    ("group", "info", "--group", "X9"): 2,  # SchemaError
    ("group", "info"): 2,  # argparse's SystemExit
    ("qpoly", "P", "--n", "121"): 3,  # DomainError
}


def python(*argv, **kwargs):
    return subprocess.run([sys.executable, *argv], stderr=subprocess.PIPE, text=True, **kwargs)


def test_the_library_keeps_the_default_collector(capsys):
    for module in pkgutil.iter_modules(wittburnside.__path__):
        if module.name != "__main__":  # the program, which runs on import
            importlib.import_module(f"wittburnside.{module.name}")
    assert main(["group", "info", "--group", "C2"]) == 0
    assert json.loads(capsys.readouterr().out)["group"] == "C2"
    assert gc.isenabled() and gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv,code", ARGVS.items(), ids=[" ".join(argv) for argv in ARGVS])
def test_the_entry_point_exits_with_what_main_prints_and_returns(argv, code, capsys):
    try:
        assert main(list(argv)) == code
    except SystemExit as e:  # argparse's usage error
        assert e.code == code
    want = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "wittburnside", *argv], capture_output=True)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == want.out.encode()
    assert proc.stderr.decode() == want.err


def run_with_main(body, **kwargs):
    """`cli.run` in a fresh interpreter, with `cli.main` replaced by body's."""
    program = f"import sys\nfrom wittburnside import cli\ndef main():\n    {body}\ncli.main = main\ncli.run()\n"
    return python("-c", program, **kwargs)


def test_the_entry_point_reads_a_non_int_exit_code_as_sys_exit_does():
    proc = run_with_main("sys.exit('no such input')", stdout=subprocess.DEVNULL)
    assert proc.returncode == 1 and proc.stderr == "no such input\n"
    assert run_with_main("sys.exit()", stdout=subprocess.DEVNULL).returncode == 0


def test_an_exception_from_main_still_prints_its_traceback():
    proc = run_with_main("raise KeyError('x')", stdout=subprocess.DEVNULL)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and proc.stderr.endswith("KeyError: 'x'\n")


# --- a failed write of the output ------------------------------------------------


def one_line_oserror(proc, text):
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == f"OSError: {text}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_device_exits_4():
    with open("/dev/full", "w") as full:
        proc = python("-m", "wittburnside", "group", "info", "--group", "S4", stdout=full)
    one_line_oserror(proc, "[Errno 28] No space left on device")


def test_a_closed_stdout_exits_4(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"schema_version": 1, "group": "C2", "flavor": "Witt", "ring": "Z",
                             "components": ["1", "2"], "labels": ["G", "1"]}), encoding="utf-8")
    # the shell starts the interpreter with file descriptor 1 closed
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "wittburnside",
                           "witt", "add", str(a), str(a)], stderr=subprocess.PIPE, text=True)
    one_line_oserror(proc, "standard output is closed")


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_pipe_with_no_reader_exits_4(unbuffered):
    # unbuffered, the write fails; buffered, a small output used to fail only
    # at the flush at exit ("Exception ignored", exit 120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = python("-m", "wittburnside", "group", "info", "--group", "C2", stdout=write, env=env)
    finally:
        os.close(write)
    one_line_oserror(proc, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [True, False])
def test_help_on_a_full_device_exits_4(unbuffered):
    # argparse's own help swallows the OSError of its write: this exited 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = python("-m", "wittburnside", "--help", stdout=full, env=env)
    one_line_oserror(proc, "[Errno 28] No space left on device")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_failed_final_flush_exits_4():
    # main returns 0 with its output still buffered; the flush before exit fails
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = run_with_main("return sys.stdout.write('{}') and 0", stdout=full, env=env)
    one_line_oserror(proc, "[Errno 28] No space left on device")
