"""Run one command and report its wall time, peak RSS and exit code.

    python3 perfbench/spawn.py TIMEOUT_S LOG -- ARGV...

Prints ``{"wall_s": ..., "rss_mb": ..., "code": ...}``. Linux counts
the memory of the process that forked a child in the child's peak RSS,
so the benchmark, which holds NumPy, SciPy and loaded outputs, forks
its commands through this small launcher to keep the figure the
command's own.
"""
import json
import os
import subprocess
import sys
import threading
from time import perf_counter

if __name__ == "__main__":
    timeout, log, argv = float(sys.argv[1]), sys.argv[2], sys.argv[4:]
    with open(log, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                      "code": proc.returncode}))
