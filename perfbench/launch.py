"""Run one command; report its wall time, peak resident set and exit code.

    python3 perfbench/launch.py STDERR_FILE ARGV...

Prints one JSON line: {"wall_s": …, "maxrss_kib": …, "exit": …}. The wall
time runs from spawn to exit. The peak resident set is the larger of the
command's own and that of any child it reaped (Linux wait4 rusage).

The command is forked from this small interpreter rather than from the
benchmark process, because on Linux a process's peak resident set starts
from that of the process it was forked from: forked from the benchmark, a
command would report the benchmark's memory whenever that is larger.
"""

import json
import os
import subprocess
import sys
import time


def main(argv) -> int:
    err_path, command = argv[0], argv[1:]
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
                      "exit": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
