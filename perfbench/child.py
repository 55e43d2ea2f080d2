"""One fresh interpreter of the benchmark: import opalg, run one job, exit.

Protocol: the child imports ``opalg`` and prints ``{"ready": <monotonic
time>}``, from which the parent takes the set-up time.  It then reads one
JSON job from stdin, runs it (see ``jobs.py``) and prints one JSON result
line.

Usage: ``python3 perfbench/child.py <src dir>`` with ``<src dir>`` on
``PYTHONPATH``; ``perfbench/run.py`` starts it.
"""

import json
import os
import sys
import time


def main() -> None:
    import opalg

    src = os.path.join(os.path.abspath(sys.argv[1]), "")
    if not os.path.abspath(opalg.__file__).startswith(src):
        sys.exit(f"opalg was imported from {opalg.__file__}, not from {src}")
    print(json.dumps({"ready": time.monotonic()}), flush=True)

    import jobs

    jobs.main(json.loads(sys.stdin.readline()))


if __name__ == "__main__":
    main()
