"""Compare two saved outputs of run.py for the same workload.

    python3 perfbench/run.py --workload census > before.txt
    python3 perfbench/run.py --workload census > after.txt
    python3 perfbench/compare.py before.txt after.txt

Refuses (exit 2) when the two sides ran different workloads or trace modes,
or different determinant kernels (kernels.IMPLEMENTATION): a compiled
kernel alone changes the census by ~25x, so such a pair measures the build,
not the change.
"""

import json
import sys

MUST_MATCH = ("workload", "trace", "kernels")


def load(path):
    """(env record, final JSON object) of one saved run."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return env, json.loads(lines[-1])


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, res_a), (env_b, res_b) = load(argv[0]), load(argv[1])
    for key in MUST_MATCH:
        if env_a[key] != env_b[key]:
            print(f"invalid comparison: {key} differs ({env_a[key]} vs {env_b[key]})", file=sys.stderr)
            return 2
    print(f"{env_a['workload']}: {env_a['git_sha'][:12]} -> {env_b['git_sha'][:12]}")
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            continue
        change = f"{b['value'] / a['value'] - 1:+.1%}" if a["value"] else "n/a"
        print(f"{name:32} {a['value']:12.6g} -> {b['value']:12.6g} {a['unit']:6} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
