"""Start benchmark commands on behalf of bench/run.py, one at a time.

Run as ``python -S bench/launcher.py``. Reads one JSON request per line on
stdin, {"argv": [...], "stdout": path, "stderr": path}, starts argv with
its output sent to those files, waits for it and answers with one JSON
line: exit code, wall seconds from spawn to reap, and the rusage of the
process together with the children it reaped (pool workers included).

A process started by exec inherits the RSS high-water mark of the process
that started it, so commands are started from this small launcher rather
than from the driver; a command's max RSS is then its own.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 150
_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(req: dict) -> dict:
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, req["stdout"], _WRITE, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, req["stderr"], _WRITE, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                         file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
