"""Run benchmark jobs as child processes; report wall time, exit code, peak RSS.

On Linux a child's ``ru_maxrss`` starts from the resident size of the
process that spawned it, so children are spawned from this small process
and not from the benchmark process, which holds numpy and the inputs.
Imports only the standard library.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": path, "stderr": path}``, answered by one JSON
line ``{"s": seconds, "code": exit_code, "rss_kb": ru_maxrss}``.  The
process exits when stdin closes.
"""

import json
import os
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], FLAGS, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["stderr"], FLAGS, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        reply = {"s": seconds, "code": os.waitstatus_to_exitcode(status), "rss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
