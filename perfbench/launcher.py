"""Runs the benchmark's child processes, one at a time, and measures them.

Reads one JSON request per line on stdin, ``{"argv", "env", "log"}``,
runs it to completion with its output in ``log``, and answers with one
JSON line ``{"code", "wall_s", "rss_mb"}``. Peak RSS comes from
``os.wait4``. On Linux a child's ``ru_maxrss`` starts from the peak RSS
of the process that spawned it. So children are spawned from this small
process and not from the benchmark, which grows when it loads a model.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    with open(request["log"], "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], env=request["env"], stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall,
                      "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
