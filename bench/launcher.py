"""Process launcher that keeps peak-RSS figures honest.

On Linux a process's peak RSS includes the memory of the process it was
forked from, up to its exec.  The benchmark itself holds numpy, scipy and
the exact references, so jobs forked from it would all report its size.
This launcher is started before any of that is imported and forks every job
from its own small image instead.

Protocol: one JSON request per line on stdin,
  {"args": [...], "cwd": str, "env": {...}, "log": path, "timeout": s},
answered by one JSON line on stdout,
  {"exit_code": int, "wall_s": float, "maxrss_kb": int}.
A job still running at its timeout is killed with its process group.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run(req: dict) -> dict:
    with open(req["log"], "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["args"], cwd=req["cwd"], env=req["env"],
                                stdout=log, stderr=log,
                                start_new_session=True)
        killer = threading.Timer(req["timeout"], kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        kill_group(proc.pid)  # pool workers a killed job left behind
    return {"exit_code": proc.returncode, "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
