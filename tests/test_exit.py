"""How a CLI process ends: the collector policy, and a failed write of the output.

Only the entry point `python -m wittburnside` freezes the collector, at
exit, so that CPython's finalizing collections skip what the process built;
the library, and `cli.main` called in process, keep the default collector.
An output that cannot be written ends the process with one line on stderr
and exit 4, never a traceback or exit 1 (which a failing `verify` means).
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
def test_the_entry_point_freezes_the_collector_at_exit(argv, code):
    # atexit runs its handlers last in, first out: one registered before the
    # entry point runs after the entry point's freeze
    program = ("import atexit, gc, runpy, sys\n"
               "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
               f"sys.argv = ['wittburnside', *{argv!r}]\n"
               "runpy.run_module('wittburnside', run_name='__main__', alter_sys=True)\n")
    proc = python("-c", program, stdout=subprocess.DEVNULL)
    assert proc.returncode == code, proc.stderr
    word, count = proc.stderr.splitlines()[-1].split()
    assert word == "frozen" and int(count) > 0


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
