"""Run the mutant table's rows from one warm interpreter, one fork each.

    python tests/mutant_server.py        (from the repository root)

tests/test_mutants.py starts this once per session.  It imports pytest
and hypothesis, whose start-up is most of what a fresh pytest process
per row would cost, and never foldeg.  Each line on standard input is a
JSON request {"src": copy of src/, "args": pytest arguments, "timeout":
seconds}.  For each it forks: the child puts the copy first on sys.path
and in PYTHONPATH, writes no bytecode, and runs pytest.main with the
arguments, its output going into a pipe.  The answer is one JSON line on standard output:
{"code": exit code, "out": the child's output, "timed_out": bool}.  A
child still running after its timeout is killed.
"""

import json
import os
import select
import signal
import sys
import time

import hypothesis  # noqa: F401
import pytest


def run_child(src, args, write_end):
    """In the forked child: run pytest on the copy, report to the pipe."""
    os.dup2(write_end, 1)
    os.dup2(write_end, 2)
    null = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null, 0)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    code = 3
    try:
        code = int(pytest.main(args))
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def run(src, args, timeout):
    """Fork one child for a row; return its answer."""
    loaded = [m for m in sys.modules if m == "foldeg" or m.startswith("foldeg.")]
    assert not loaded, "the server has loaded %s" % loaded
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        run_child(src, args, write_end)
    os.close(write_end)
    chunks, deadline, timed_out = [], time.monotonic() + timeout, False
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([read_end], [], [], left)[0]:
            os.kill(pid, signal.SIGKILL)
            timed_out = True
            break
        chunk = os.read(read_end, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_end)
    _, status = os.waitpid(pid, 0)
    return {"code": os.waitstatus_to_exitcode(status), "timed_out": timed_out,
            "out": b"".join(chunks).decode(errors="replace")}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        answer = run(request["src"], request["args"], request["timeout"])
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
