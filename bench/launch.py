"""Run one command and report its wall time, CPU time and peak RSS.

    python3 bench/launch.py STDOUT STDERR COMMAND...

run.py starts every measured child through this small process.  A child's
ru_maxrss starts from the peak RSS of the process that spawned it, and this
one is smaller than any boxlab run, while run.py is not.  Prints one JSON
line with wall_s, cpu_s, rss_mb and code.  SIGTERM kills the command.
"""

import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    out_path, err_path, command = argv[0], argv[1], argv[2:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    child = []
    signal.signal(signal.SIGTERM, lambda *_: child and os.kill(child[0], signal.SIGKILL))
    t0 = time.perf_counter()
    child.append(os.posix_spawn(command[0], command, os.environ, file_actions=actions))
    _, status, usage = os.wait4(child[0], 0)
    wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0,
                      "code": os.waitstatus_to_exitcode(status)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
