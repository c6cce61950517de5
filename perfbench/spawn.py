"""Launcher for the benchmark's commands: runs each one it is sent and
reports its wall time, peak RSS and exit code.

    python3 perfbench/spawn.py    # started by run.py, with src on PYTHONPATH

Reads one JSON request per line on stdin, {"argv": [...], "log": path}, runs
the command with stdout discarded and stderr written to the log, and answers
with one JSON line {"wall_s", "rss_mb", "code"} on stdout. A command still
running after OP_TIMEOUT_S is killed.

It imports no numpy and stays small on purpose. At exec, Linux folds the
RSS high-water mark of the process image being replaced into the new
program's ru_maxrss, and a freshly spawned child's image is its launcher's.
Started from run.py, which holds numpy and chains, a fit reported run.py's
43 MB instead of its own 38 MB.
"""

import json
import os
import subprocess
import sys
import threading
import time

OP_TIMEOUT_S = 60.0


def run(argv: list, log: str) -> dict:
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["log"])), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
