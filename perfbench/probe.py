"""Time one program set-up in a fresh interpreter; print it as JSON.

Usage: ``python3 perfbench/probe.py <workload>`` with ``src/`` on
``PYTHONPATH``.  The clock starts before the program is imported, so
the figure covers imports plus the workload's own set-up (see
``setup`` in ``dse.py`` and ``campaign.py``), not interpreter start.
It is reported raw and scaled to the reference host speed (see
``hostspeed.py``), sampled in this process while it sets up.
"""

import json
import sys
import time

from hostspeed import SHORT_PERIOD_S, HostSpeed


def main() -> int:
    workload = sys.argv[1]
    speed = HostSpeed(SHORT_PERIOD_S).start()
    started = time.perf_counter()
    if workload == "dse-future":
        import dse

        dse.setup()
    elif workload == "campaign-traces":
        import campaign

        campaign.setup(probe=True)
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")
    ended = time.perf_counter()
    speed.stop()
    print(json.dumps({"setup_s": speed.scaled(started, ended),
                      "raw_setup_s": ended - started}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
