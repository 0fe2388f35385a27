"""Child-process launcher that keeps its own memory small.

Linux carries a process's peak resident size over fork and exec, so a child
started from the benchmark process, which holds inputs and expected results,
would report at least that process's peak as its own.  The benchmark starts
this helper before it loads anything large.  The helper reads one request per
line on standard input, a JSON list [argv, stdout path, stderr path]; runs the
command to its end in its own working directory and environment; and answers
one JSON line [wall seconds, the child's own peak RSS in KiB from wait4, exit
code, wall-clock time at start].  It exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        argv, stdout, stderr = json.loads(line)
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            spawned = time.time()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([wall, usage.ru_maxrss, proc.returncode, spawned]), flush=True)


if __name__ == "__main__":
    main()
