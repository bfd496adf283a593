"""Run one command; print its exit code, wall interval and peak memory.

Usage: python -I -S spawn.py LOG_PATH PROGRAM [ARGS...]

Linux carries a parent's peak resident size into the ru_maxrss of every
child it starts, so a command started by the benchmark process (which
holds the generated recording) would report the benchmark's peak. This
small process starts the command instead, so ``peak_rss_kb`` is the
command's own. Output goes to LOG_PATH; stdout gets one JSON object with
``code``, ``start`` and ``end`` (CLOCK_MONOTONIC seconds) and
``peak_rss_kb``.
"""

import json
import os
import sys
import time


def main() -> int:
    log, argv = sys.argv[1], sys.argv[2:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
         0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    json.dump({"code": os.waitstatus_to_exitcode(status), "start": start,
               "end": end, "peak_rss_kb": usage.ru_maxrss}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
