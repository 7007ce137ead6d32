"""Record the default-seed outputs that timed runs on that seed are checked against.

    python3 perfbench/record_reference.py

For each workload it runs one timed child and the replay at the default
seed, requires the two to agree, and writes the program's outputs and the
counts that must repeat exactly to ``reference.json``.  Run it only on a
commit whose outputs are known to be right: the file pins them.
"""

import json
import sys

from run import HERE, Children, compare, per_layer, COUNT_KEYS
from workloads import DEFAULT_SEED, WORKLOADS, workload


def main() -> int:
    recorded = {}
    for name in WORKLOADS:
        with Children(name, DEFAULT_SEED, False) as children:
            timed = children.run("timed")
            replay = children.run("replay")
        problems = [p for got, want in zip(timed["ops"], replay["ops"]) for p in compare(got, want)]
        if problems or len(timed["ops"]) != len(replay["ops"]):
            print(f"{name}: program and replay disagree: {problems[:3]}", file=sys.stderr)
            return 1
        layers = per_layer(workload(name), replay, timed["run_s"])
        recorded[name] = {"ops": timed["ops"], "counts": {k: layers[k][0] for k in COUNT_KEYS}}
        print(f"{name}: {recorded[name]['counts']}")
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": recorded}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
