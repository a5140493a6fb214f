"""Keep one CPU busy at idle priority while a benchmark run lasts.

Run by ``run.py``, one process per CPU it may use::

    python3 perfbench/idle_spin.py <cpu>

On a virtual machine an idle CPU halts, and waking it again waits for
the hypervisor to schedule it; under a loaded host that wait reaches
milliseconds and lands on every request that crosses CPUs.  A
``SCHED_IDLE`` spinner keeps the CPU from halting, like booting the
guest with ``idle=poll``, and yields to any normal-priority thread at
once.  The spinner exits when its parent is gone.
"""

from __future__ import annotations

import os
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cpu = int(argv[0])
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    spins = 0
    while True:
        spins += 1
        if spins % 1_000_000 == 0 and os.getppid() != parent:
            return 0


if __name__ == "__main__":
    sys.exit(main())
