"""Start figurate processes for run.py from a process that stays small.

On Linux a child's ru_maxrss includes the peak RSS of the process that forked
it, carried across exec. The benchmark process grows with its inputs and the
traced in-process runs, so it starts this launcher first, while it is still
small, and every measured process is started from here instead.

Protocol: one JSON request per stdin line, {"argv": [...], "stdout": path,
"stderr": path}; one JSON reply per stdout line, {"code": int, "wall": s,
"cpu": s, "maxrss_kb": int}. The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            killer = threading.Timer(TIMEOUT_S, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
