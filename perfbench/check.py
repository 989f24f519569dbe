"""Correctness checks on each job's output.

``check_job`` reads what a job wrote, compares it with an oracle that
does not share code with genestim where one exists (Wilson and
Clopper-Pearson closed forms, SciPy's noncentral hypergeometric law, a
SciPy root finder, the frozen coverage table of the acceptance test),
checks the invariants the paper states, and, when the job has one,
compares every number with the reference recorded from the seed commit.
It returns the extracted numbers and a list of problems; an empty list
means the job passed.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import jobs as joblists

HERE = Path(__file__).resolve().parent

# Reference comparison: |got - ref| <= REF_TOL * max(1, |ref|).  Admits
# round-off moves (endpoints shifting by ~1e-11) and rejects a value
# moved by 1e-6.
REF_TOL = 1e-9
ORACLE_TOL = 1e-9

Z_95 = 1.959964

# Frozen exact-coverage table of tests/test_acceptance.py for (20, 30):
# (odds ratio, p1, p2) -> (closed, open) x (c=0, c=0.5, c=1, exact).
COVERAGE_REFERENCE = {
    (1.0, 0.01, 0.01): ((.999, 1.0, 1.0, 1.0), (.394, 1.0, 1.0, 1.0)),
    (1.0, 0.20, 0.20): ((.957, .958, .960, .980), (.957, .958, .960, .980)),
    (1.0, 0.50, 0.50): ((.944, .944, .944, .975), (.944, .944, .944, .975)),
    (1.0, 0.70, 0.70): ((.954, .954, .954, .977), (.954, .954, .954, .977)),
    (1.0, 0.90, 0.90): ((.968, .976, .981, .989), (.962, .976, .981, .989)),
    (1.5, 0.015, 0.01): ((1.0, 1.0, 1.0, 1.0), (.452, 1.0, 1.0, 1.0)),
    (1.5, 0.273, 0.20): ((.946, .958, .958, .981), (.946, .958, .958, .981)),
    (1.5, 0.60, 0.50): ((.946, .946, .946, .976), (.946, .946, .946, .976)),
    (1.5, 0.778, 0.70): ((.952, .953, .953, .975), (.952, .953, .953, .975)),
    (1.5, 0.931, 0.90): ((.9695, .982, .982, .995),
                         (.959, .982, .982, .995)),
    (4.0, 0.039, 0.01): ((.982, .998, .998, .998), (.647, .998, .998, .998)),
    (4.0, 0.50, 0.20): ((.952, .957, .957, .977), (.952, .957, .957, .977)),
    (4.0, 0.80, 0.50): ((.948, .948, .950, .978), (.948, .948, .950, .978)),
    (4.0, 0.903, 0.70): ((.955, .960, .970, .987), (.955, .960, .970, .987)),
    (4.0, 0.973, 0.90): ((.938, .974, .974, .989), (.914, .974, .974, .989)),
}
C_VALUES = (0.0, 0.5, 1.0)


def parse_args(args: list) -> dict:
    """``--name value`` pairs to a dict; flags map to True, repeats to lists."""
    out: dict = {}
    i = 0
    while i < len(args):
        key = args[i][2:]
        if i + 1 < len(args) and not args[i + 1].startswith("--"):
            value, i = args[i + 1], i + 2
        else:
            value, i = True, i + 1
        if key in out:
            prev = out[key]
            out[key] = (prev if isinstance(prev, list) else [prev]) + [value]
        else:
            out[key] = value
    return out


def read_csv(path: Path):
    """(header, rows) of a genestim CSV, past its manifest comment line."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def close(got, want, tol) -> bool:
    if got is None or want is None:
        return got is want
    if isinstance(want, (bool, str)) or isinstance(got, (bool, str)):
        return got == want
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol * max(1.0, abs(want))


def norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def wilson(n: int, y: int, z: float):
    """Roots of (y - n p) / sqrt(n p (1 - p)) = +z and -z (lower, upper)."""
    mid = y + 0.5 * z * z
    half = z * math.sqrt(y * (n - y) / n + 0.25 * z * z)
    return (mid - half) / (n + z * z), (mid + half) / (n + z * z)


# --- one checker per job type: (opts, out_dir, stdout) -> (values, problems)


def check_binom_ci(opts, out_dir, stdout):
    n, y, z, side = int(opts["n"]), int(opts["y"]), float(opts["z"]), \
        opts["side"]
    res = json.loads((out_dir / "interval.json").read_text())
    lo, hi = wilson(n, y, z)
    want_lo = lo if side in ("two-sided", "upper-only") else 0.0
    want_hi = hi if side in ("two-sided", "lower-only") else 1.0
    problems = []
    for name, got, want in (("lower", res["lower"], want_lo),
                            ("upper", res["upper"], want_hi)):
        if not close(got, want, ORACLE_TOL):
            problems.append(f"{name} {got!r} != Wilson {want!r}")
    return {"lower": res["lower"], "upper": res["upper"]}, problems


def check_binom_curves(opts, out_dir, stdout):
    import numpy as np
    from scipy.special import xlogy

    n, y_obs = int(opts["n"]), int(opts["y"])
    grid = np.linspace(1e-4, 1 - 1e-4, int(opts.get("grid-points", 512)))
    ys = np.repeat(np.arange(n + 1), len(grid)).astype(float)
    ps = np.tile(grid, n + 1)
    score = (ys - n * ps) / np.sqrt(n * ps * (1 - ps))
    sup = xlogy(ys, ys / n) + xlogy(n - ys, 1 - ys / n)
    llr = 2 * (sup - ys * np.log(ps) - (n - ys) * np.log1p(-ps))
    values, problems = {}, []
    for name, want in (("score", score), ("llr", llr)):
        _, rows = read_csv(out_dir / f"{name}_curves.csv")
        arr = np.array([[float(v) for v in r] for r in rows])
        if arr.shape != (len(ys), 5):
            problems.append(f"{name}: {arr.shape} rows, want {len(ys)}x5")
            continue
        if not (np.array_equal(arr[:, 0], ys) and np.allclose(
                arr[:, 1], ps, rtol=0, atol=1e-15)):
            problems.append(f"{name}: (y, p) grid differs")
        err = np.abs(arr[:, 2] - want) / np.maximum(1.0, np.abs(want))
        if err.max() > ORACLE_TOL:
            problems.append(f"{name}: value off by {err.max():.2e} (rel)")
        if not np.array_equal(arr[:, 3], (ys == y_obs).astype(float)):
            problems.append(f"{name}: realized column wrong")
        if name == "score" and not np.all(arr[:, 4] == -1):
            problems.append("score: curves must all decrease in p")
        values[f"{name}.sum"] = float(arr[:, 2].sum())
        values[f"{name}.abs_sum"] = float(np.abs(arr[:, 2]).sum())
    return values, problems


def _tilted_p1(theta, tnuis, n1, n2):
    """p1 with n1 p1 + n2 p2 = tnuis and logit p1 - logit p2 = theta."""
    from scipy.optimize import brentq
    from scipy.special import expit

    lo = max(0.0, (tnuis - n2) / n1)
    hi = min(1.0, tnuis / n1)

    def f(p1):
        return (n1 * p1 + n2 * expit(math.log(p1 / (1 - p1)) - theta)
                - tnuis)
    eps = 1e-15 * max(1.0, hi - lo)
    return brentq(f, lo + eps, hi - eps, xtol=1e-300, rtol=1e-15,
                  maxiter=500)


def check_or_interval(opts, out_dir, stdout):
    from scipy.stats import nchypergeom_fisher

    n1, n2, x1, x2 = (int(opts[k]) for k in ("n1", "n2", "x1", "x2"))
    z = float(opts["z"])
    closed = "open-interval" not in opts
    res = json.loads((out_dir / "interval.json").read_text())
    zi, fi = res["z_interval_log_or"], res["fisher_exact_odds_ratio"]
    problems = []

    # Fisher endpoints: the one-sided conditional tails equal alpha there
    alpha = 0.5 * (1.0 - (2.0 * norm_cdf(z) - 1.0))
    t = x1 + x2
    law = dict(M=n1 + n2, n=n1, N=t)
    if t in (0, n1 + n2):
        if not (fi["lower"] == 0.0 and fi["upper"] is None):
            problems.append("fisher: degenerate support must give [0, inf)")
    else:
        if x1 == max(0, t - n2):
            if fi["lower"] != 0.0:
                problems.append("fisher: lower must be 0 at the support edge")
        else:
            tail = float(nchypergeom_fisher.sf(x1 - 1, odds=fi["lower"],
                                               **law))
            if abs(tail / alpha - 1.0) > 1e-6:
                problems.append(f"fisher: Pr(X >= x1) = {tail!r} at the "
                                f"lower endpoint, want {alpha!r}")
        if x1 == min(n1, t):
            if fi["upper"] is not None:
                problems.append("fisher: upper must be inf at the support "
                                "edge")
        else:
            tail = float(nchypergeom_fisher.cdf(x1, odds=fi["upper"], **law))
            if abs(tail / alpha - 1.0) > 1e-6:
                problems.append(f"fisher: Pr(X <= x1) = {tail!r} at the "
                                f"upper endpoint, want {alpha!r}")

    # z-standard endpoints: |standardized score| = z there
    if "nuisance-value" in opts:
        tnuis = float(opts["nuisance-value"])
    else:
        c = float(opts.get("c", 0.0))
        tnuis = (n1 * (x1 + c) / (n1 + 2 * c) + n2 * (x2 + c) / (n2 + 2 * c))
    if not 0.0 < tnuis < n1 + n2:
        if closed and not (zi["lower"] is None and zi["upper"] is None
                           and not zi["empty"]):
            problems.append("z: degenerate nuisance must give the whole "
                            "line when closed")
        if not closed and not zi["empty"]:
            problems.append("z: degenerate nuisance must give the empty "
                            "set when open")
    else:
        if zi["empty"] or zi["closed_lower"] != closed \
                or zi["closed_upper"] != closed:
            problems.append("z: wrong open/closed convention")
        for name in ("lower", "upper"):
            theta = zi[name]
            if theta is None:
                continue
            p1 = _tilted_p1(theta, tnuis, n1, n2)
            p2 = (tnuis - n1 * p1) / n2
            a1, a2 = p1 * (1 - p1), p2 * (1 - p2)
            sbar = ((x1 / n1 - p1) / a1 - (x2 / n2 - p2) / a2) \
                / math.sqrt(1 / (n1 * a1) + 1 / (n2 * a2))
            if abs(abs(sbar) - z) > 1e-6 * z:
                problems.append(f"z: |sbar| = {abs(sbar)!r} at the {name} "
                                f"endpoint, want {z!r}")
        if zi["lower"] is not None and zi["upper"] is not None \
                and zi["lower"] > zi["upper"]:
            problems.append("z: endpoints out of order")
    values = {f"z.{k}": zi[k] for k in ("lower", "upper", "empty")}
    values.update({f"fisher.{k}": fi[k] for k in ("lower", "upper")})
    return values, problems


def _zeta(p: float) -> float:
    return math.log2(2 * p) if p <= 0.5 else -math.log2(2 * (1 - p))


# Monte Carlo efficiency windows (n = 10, 1e5 replications).  Normal data:
# the acceptance test's centres and widths.  t3 data: the mean's is
# 1 / (Var x * I) = 1/2; the others are centred on seed 0's values and are
# more than ten standard errors wide.
EFFICIENCY_WINDOWS = {
    "normal": {"mean": (1 - 1e-9, 1 + 1e-9), "median": (0.704, 0.744),
               "t3_mle": (0.886, 0.926)},
    "t3": {"mean": (0.45, 0.55), "median": (0.80, 0.87),
           "t3_mle": (0.90, 0.96)},
}


def check_zeta_lab(opts, out_dir, stdout):
    family = opts["family"]
    values, problems = {}, []
    _, rows = read_csv(out_dir / "efficiency.csv")
    for label, fam, eff, se, ratio in rows:
        eff, se, ratio = float(eff), float(se), float(ratio)
        lo, hi = EFFICIENCY_WINDOWS[family][label]
        if fam != family or not lo <= eff <= hi:
            problems.append(f"{label}: efficiency {eff:.4f} outside "
                            f"[{lo}, {hi}]")
        if label == "mean" and ratio != 1.0:
            problems.append("mean: variance ratio must be 1")
        values.update({f"{label}.eff": eff, f"{label}.se": se,
                       f"{label}.var_ratio": ratio})
    _, rows = read_csv(out_dir / "zeta_curves.csv")
    sums: dict = {}
    for label, prob, ref, comp in rows:
        prob, ref, comp = float(prob), float(ref), float(comp)
        if abs(ref - _zeta(prob)) > 0.01:
            problems.append(f"{label}: reference zeta {ref:.4f} at "
                            f"{prob} is not log2 tail depth {_zeta(prob):.4f}")
            break
        if label == "mean" and comp != ref:
            problems.append("mean: curve against itself must be the "
                            "identity")
            break
        sums[label] = sums.get(label, 0.0) + comp
    values.update({f"zeta.{k}.sum": v for k, v in sums.items()})
    if "mean" not in sums:
        problems.append("zeta curve of the mean missing")
    return values, problems


AFFINE_ESTIMATORS = ("score", "centered-proportion", "centered-shrinkage")


def check_info_report(opts, out_dir, stdout):
    n = int(opts["n"])
    ps = opts["p"] if isinstance(opts["p"], list) else [opts["p"]]
    _, rows = read_csv(out_dir / "info_report.csv")
    values, problems = {}, []
    if len(rows) != 4 * len(ps):
        problems.append(f"{len(rows)} rows, want {4 * len(ps)}")
    for label, p, lam, bound, eff, r in rows:
        p, lam, bound, eff, r = (float(v) for v in (p, lam, bound, eff, r))
        where = f"{label} at p={p}"
        if not close(bound, n / (p * (1 - p)), ORACLE_TOL):
            problems.append(f"{where}: bound {bound!r} != n/(p(1-p))")
        if lam > bound * (1 + ORACLE_TOL):
            problems.append(f"{where}: lambda {lam!r} above bound")
        if not (close(eff, lam / bound, ORACLE_TOL)
                and close(r * r, eff, ORACLE_TOL)):
            problems.append(f"{where}: efficiency != lambda/bound = R^2")
        if label in AFFINE_ESTIMATORS and not close(eff, 1.0, ORACLE_TOL):
            problems.append(f"{where}: efficiency {eff!r} != 1")
        values.update({f"{label}@{p!r}.lambda": lam,
                       f"{label}@{p!r}.efficiency": eff})
    return values, problems


def check_verify(opts, out_dir, stdout):
    ok = "all checks passed" in stdout and "[FAIL]" not in stdout
    return {}, [] if ok else ["verify did not report all checks passed"]


def _coverage_rows(out_dir):
    _, rows = read_csv(out_dir / "coverage.csv")
    return {(float(o), float(p1), float(p2), float(c), e == "1", m):
            float(cov) for o, p1, p2, c, e, m, cov in rows}


def check_or_coverage(opts, out_dir, stdout):
    n1, n2 = int(opts.get("n1", 20)), int(opts.get("n2", 30))
    z = float(opts.get("z", Z_95))
    cov = _coverage_rows(out_dir)
    problems = []
    if len(cov) != len(COVERAGE_REFERENCE) * 2 * 4:
        problems.append(f"{len(cov)} coverage rows, want 120")
    if not all(0.0 <= v <= 1.0 + 1e-12 for v in cov.values()):
        problems.append("coverage outside [0, 1]")
    for cell in COVERAGE_REFERENCE:
        for eq in (True, False):
            seq = [cov.get(cell + (c, eq, "z-standard")) for c in C_VALUES]
            if None in seq:
                problems.append(f"{cell}: missing rows")
                continue
            if not (seq[0] <= seq[1] + 1e-15 and seq[1] <= seq[2] + 1e-15):
                problems.append(f"{cell} equal_sign={eq}: not monotone in c")
        for c in C_VALUES:
            shut = cov.get(cell + (c, True, "z-standard"), 0.0)
            if shut < cov.get(cell + (c, False, "z-standard"), 0.0) - 1e-15:
                problems.append(f"{cell} c={c}: closed below open")
    if (n1, n2) == (20, 30) and z == Z_95:
        worst = 0.0
        for cell, (shut, open_) in COVERAGE_REFERENCE.items():
            for eq, want in ((True, shut), (False, open_)):
                for c, w in zip(C_VALUES, want[:3]):
                    worst = max(worst, abs(cov.get(
                        cell + (c, eq, "z-standard"), 9.0) - w))
                worst = max(worst, abs(cov.get(
                    cell + (0.0, eq, "fisher-exact"), 9.0) - want[3]))
        if worst >= 0.005:
            problems.append(f"frozen (20, 30) table missed by {worst:.4f}")
    values = {",".join(map(str, k)): v for k, v in cov.items()}
    return values, problems


def check_or_endpoint_tails(opts, out_dir, stdout):
    n1, n2 = int(opts.get("n1", 20)), int(opts.get("n2", 30))
    level = float(opts.get("level", 0.95))
    _, rows = read_csv(out_dir / "endpoint_tails.csv")
    problems, values = [], {}
    cells = [(int(a), int(b)) for a, b, _, _ in rows]
    if cells != [(a, b) for a in range(1, n1) for b in range(1, n2)]:
        problems.append("rows are not the interior cells in order")
    tails = [(float(lt), float(rt)) for _, _, lt, rt in rows]
    if not all(0.0 <= v <= 1.0 for pair in tails for v in pair):
        problems.append("tail outside [0, 1]")
    if (n1, n2, level) == (20, 30, 0.95):
        over = sum(1 for pair in tails if max(pair) > 0.025)
        if over > 6:
            problems.append(f"{over} cells with a tail above 0.025 "
                            "(acceptance allows 6)")
    for (a, b), (lt, rt) in zip(cells, tails):
        values[f"{a},{b}.left"], values[f"{a},{b}.right"] = lt, rt
    return values, problems


def check_tour(opts, out_dir, stdout):
    from scipy.special import betaincinv

    res = json.loads((out_dir / "tour.json").read_text())
    n, alpha = int(opts["n"]), float(opts["alpha"])
    problems = []
    if not (close(res["efficiency"], 1.0, ORACLE_TOL)
            and res["routes_agree"]):
        problems.append("shrinkage estimator must be fully efficient, with "
                        "both information routes agreeing")
    lo, hi = wilson(20, 6, 2.0)
    if not (close(res["ci_lower"], lo, ORACLE_TOL)
            and close(res["ci_upper"], hi, ORACLE_TOL)):
        problems.append("ci_z(20, 6, 2) is not the Wilson interval")
    if abs(res["coverage"] - 0.944) >= 0.005:
        problems.append(f"coverage {res['coverage']:.4f} misses the frozen "
                        "0.944")
    for y, upper, lower in res["tails"]:
        want_up = 1.0 if y == n else float(betaincinv(y + 1, n - y,
                                                      1 - alpha))
        want_lo = 0.0 if y == 0 else float(betaincinv(y, n - y + 1, alpha))
        if not (close(upper, want_up, ORACLE_TOL)
                and close(lower, want_lo, ORACLE_TOL)):
            problems.append(f"y={y}: tail endpoints ({lower!r}, {upper!r}) "
                            f"are not Clopper-Pearson ({want_lo!r}, "
                            f"{want_up!r})")
            break
    values = {k: res[k] for k in ("efficiency", "routes_agree", "ci_lower",
                                  "ci_upper", "coverage")}
    for y, upper, lower in res["tails"]:
        values[f"tail.{y}.upper"], values[f"tail.{y}.lower"] = upper, lower
    return values, problems


CHECKERS = {
    "binom-ci": check_binom_ci, "binom-curves": check_binom_curves,
    "or-interval": check_or_interval, "zeta-lab": check_zeta_lab,
    "info-report": check_info_report, "verify": check_verify,
    "or-coverage": check_or_coverage,
    "or-endpoint-tails": check_or_endpoint_tails, "tour": check_tour,
}


def compare_reference(values: dict, reference: dict) -> list:
    """Problems where ``values`` differ from the recorded reference."""
    if set(values) != set(reference):
        return [f"outputs {sorted(set(values) ^ set(reference))[:3]} differ "
                "from the reference's"]
    bad = [k for k, want in reference.items()
           if not close(values[k], want, REF_TOL)]
    return [f"{k} = {values[k]!r}, reference {reference[k]!r}"
            for k in bad[:3]]


def check_job(job: dict, out_dir: Path, stdout: str,
              reference: dict | None = None):
    """(values, problems) for one finished job."""
    try:
        values, problems = CHECKERS[job["cmd"]](parse_args(job["args"]),
                                                out_dir, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return {}, [f"unreadable output: {type(err).__name__}: {err}"]
    if reference is not None:
        problems += compare_reference(values, reference)
    return values, problems


def main() -> int:
    """Check finished jobs: read ``[{"job": ..., "dir": ...}, ...]`` on
    standard input, write a list of problem lists on standard output.

    Run apart from ``run.py`` so that the client that spawns the jobs
    never loads NumPy or SciPy: a child's max-RSS counts the memory of the
    process it was forked from.
    """
    references = json.loads((HERE / "reference.json").read_text())
    results = []
    for item in json.load(sys.stdin):
        out_dir = Path(item["dir"])
        stdout = (out_dir / "stdout.txt").read_text(errors="replace")
        _, problems = check_job(item["job"], out_dir, stdout,
                                references.get(joblists.job_key(item["job"])))
        results.append(problems)
    json.dump(results, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
