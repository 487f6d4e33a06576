"""Process launcher for the benchmark's fresh-process runs.

Reads one JSON request per stdin line ({"argv", "env", "cwd", "stdout"}),
runs it to completion and answers with one JSON line holding
the wall time, exit code and peak RSS from os.wait4.  Linux folds the
launching process's own peak RSS into a child's ru_maxrss at exec, so
children are launched from this small process (stdlib only) rather than
from the benchmark, whose peak reaches the workload's own.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, env=req["env"], cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"elapsed": elapsed, "returncode": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
