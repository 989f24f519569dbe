"""The README's 90-second tour, plus exact one-sided binomial endpoints.

Runs the tour's three library calls, then ``tail_z_adjusted_ci`` on both
sides for every y in 0..n, and writes every number it got as JSON.

    PYTHONPATH=src python3 perfbench/tour.py --n 20 --alpha 0.025 --out t.json
"""

from __future__ import annotations

import argparse
import json
import sys


def run(n: int, alpha: float) -> dict:
    from genestim import estimation as E
    from genestim import families as F
    from genestim import intervals as I
    from genestim import oddsratio as O

    engine = F.ExpectationEngine(mode="exact")
    fam = F.bernoulli_sum(20)
    est = E.bernoulli_suite(20, engine)["centered-shrinkage"]
    rep = E.information(engine, fam, est, [0.3])
    ci = I.ci_z(fam, 6, 2.0)
    cov = O.coverage_z(20, 30, or_true=1.0, p1=0.5, p2=0.5, c=0.0,
                       equal_sign=True)
    fam_n = F.bernoulli_sum(n)
    tails = [[y,
              I.tail_z_adjusted_ci(fam_n, y, alpha, "upper").upper,
              I.tail_z_adjusted_ci(fam_n, y, alpha, "lower").lower]
             for y in range(n + 1)]
    return {"efficiency": float(rep.efficiency[0, 0]),
            "routes_agree": bool(rep.routes_agree),
            "ci_lower": ci.lower, "ci_upper": ci.upper,
            "coverage": cov, "n": n, "alpha": alpha, "tails": tails}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--alpha", type=float, default=0.025)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.n, args.alpha)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
