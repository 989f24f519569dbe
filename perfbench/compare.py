"""Compare two results written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric of both sides with the ratio NEW/BASE.  A comparison
whose sides ran on different kernel backends is flagged and exits with
status 1: the backend changes every kernel's cost, so such a pair says
nothing about the change under test.  Other environment differences
(versions, CPU count, thread caps, workload, seed) are listed as warnings.
"""

from __future__ import annotations

import json
import sys

ENV_KEYS = ("python", "numpy", "scipy", "nproc", "blas_thread_caps",
            "workload", "seed")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path, encoding="utf-8")) for path in argv)
    env_b, env_n = base["environment"], new["environment"]
    status = 0
    if env_b["kernel_backend"] != env_n["kernel_backend"]:
        print(f"FLAG: kernel backends differ: {env_b['kernel_backend']} vs "
              f"{env_n['kernel_backend']}; the timings are not comparable")
        status = 1
    for key in ENV_KEYS:
        if env_b.get(key) != env_n.get(key):
            print(f"warning: {key} differs: {env_b.get(key)} vs "
                  f"{env_n.get(key)}")
    print(f"commits {env_b['git_commit']} -> {env_n['git_commit']}")
    metrics_b, metrics_n = base["all_metrics"], new["all_metrics"]
    width = max(len(name) for name in metrics_b)
    for name in metrics_b:
        b, n = metrics_b[name], metrics_n.get(name)
        shown = "-" if n is None else f"{n:.6g}"
        ratio = f"{n / b:.3f}" if n is not None and b else "-"
        print(f"{name:{width}s} {b:14.6g} {shown:>14s} {ratio:>8s}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
