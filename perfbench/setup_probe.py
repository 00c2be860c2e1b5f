"""Set-up time of one workload in a fresh interpreter.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py INSTANCES.json

Reads a JSON list of instance objects, then times from just before
``import baseswap`` until every instance is parsed by ``io.parse_instance``
(tree composition checks included) and prints the seconds.  Interpreter
start-up and reading the file are outside the timed span.
"""

import json
import sys
import time


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        objs = json.load(fh)
    t0 = time.perf_counter()
    import baseswap  # noqa: F401
    from baseswap.io import parse_instance

    for obj in objs:
        parse_instance(obj)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
