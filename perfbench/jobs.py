"""Seeded job lists for the three benchmark workloads.

A job is a dict ``{"cmd": <genestim command or "tour">, "args": [str, ...]}``.
The program sees only these arguments; the seed decides them.  Each
workload keeps the number and kind of its jobs fixed and lets the seed
move sizes, counts and options, with every seeded job doing about the
same amount of work, so that runs on different seeds measure the same
cost.
"""

from __future__ import annotations

import math
import random

Z_CHOICES = (1.644854, 1.959964, 2.241403, 2.575829)

# Small two-binomial shapes with (n1+1)(n2+1) between 176 and 182 outcomes:
# the seed varies the shape at an almost fixed enumeration cost.
SMALL_SHAPES = ((8, 19), (9, 17), (10, 15), (11, 14), (12, 13),
                (13, 12), (14, 11), (15, 10), (17, 9), (19, 8))

# info-report jobs enumerate about this many (outcome, p) pairs, plus a
# per-p overhead worth about ten outcomes: the p grid thins as n grows.
INFO_REPORT_WORK = 2600


def _fmt(x: float) -> str:
    return repr(float(x))


def or_study(rng: random.Random) -> list:
    """Exact coverage and endpoint-tail enumerations over outcome grids."""
    n1, n2 = rng.choice(SMALL_SHAPES)
    small = rng.choice((
        {"cmd": "or-coverage",
         "args": ["--n1", str(n1), "--n2", str(n2),
                  "--z", _fmt(rng.choice(Z_CHOICES))]},
        {"cmd": "or-endpoint-tails",
         "args": ["--n1", str(n1), "--n2", str(n2),
                  "--level", _fmt(rng.choice((0.90, 0.95, 0.99)))]}))
    # the paper's study at the default z, so its frozen table can be checked
    jobs = [{"cmd": "or-coverage", "args": ["--n1", "20", "--n2", "30"]},
            small]
    rng.shuffle(jobs)
    return jobs


def _info_report(rng: random.Random) -> dict:
    n = int(round(math.exp(rng.uniform(math.log(20), math.log(1000)))))
    k = max(1, round(INFO_REPORT_WORK / (n + 10)))
    ps = sorted({round(rng.uniform(0.05, 0.95), 4) for _ in range(k)})
    args = ["--n", str(n)]
    for p in ps:
        args += ["--p", _fmt(p)]
    return {"cmd": "info-report", "args": args}


def info_grid(rng: random.Random) -> list:
    """Per-outcome expectation loops: verify plus information tables."""
    # even n only: for odd n the sign-coarse estimator jumps at p = 0.5, on
    # verify's own p grid, and its score-equation check fails
    jobs = [{"cmd": "verify", "args": ["--n", str(2 * rng.randint(8, 12))]},
            _info_report(rng)]
    rng.shuffle(jobs)
    return jobs


def _counts(rng: random.Random, n: int, mode: str):
    """A count in 0..n: interior, or at an end of its range."""
    if mode == "low":
        return 0
    if mode == "high":
        return n
    return rng.randint(1, n - 1)


def _or_interval(rng: random.Random, shape: str) -> dict:
    n1, n2 = rng.randint(5, 60), rng.randint(5, 60)
    if shape == "all-boundary":
        x1, x2 = rng.choice(((0, 0), (n1, n2)))
    elif shape == "boundary":
        x1 = _counts(rng, n1, rng.choice(("low", "high")))
        x2 = _counts(rng, n2, "mid")
        if rng.random() < 0.5:
            x1, x2 = _counts(rng, n1, "mid"), _counts(
                rng, n2, rng.choice(("low", "high")))
    else:
        x1, x2 = _counts(rng, n1, "mid"), _counts(rng, n2, "mid")
    args = ["--n1", str(n1), "--n2", str(n2), "--x1", str(x1),
            "--x2", str(x2), "--z", _fmt(rng.choice(Z_CHOICES))]
    if shape == "fixed-nuisance":
        args += ["--nuisance-value",
                 _fmt(round(rng.uniform(0.1, 0.9) * (n1 + n2), 3))]
    else:
        args += ["--c", _fmt(rng.choice((0.0, 0.5, 1.0)))]
    if rng.random() < 0.5:
        args.append("--open-interval")
    return {"cmd": "or-interval", "args": args}


def quick_queries(rng: random.Random) -> list:
    """Many short commands, where start-up and per-call costs dominate."""
    jobs = []
    for _ in range(2):
        n = rng.randint(1, 200)
        y = rng.choice((0, n, rng.randint(0, n)))
        jobs.append({"cmd": "binom-ci", "args": [
            "--n", str(n), "--y", str(y),
            "--z", _fmt(rng.choice((1.0, 1.644854, 2.0, 2.575829, 3.0))),
            "--side", rng.choice(("two-sided", "lower-only", "upper-only"))]})
    for _ in range(2):
        n = rng.randint(10, 30)
        jobs.append({"cmd": "binom-curves",
                     "args": ["--n", str(n), "--y", str(rng.randint(0, n))]})
    shapes = ("all-boundary", "boundary", "fixed-nuisance", "interior",
              "interior")
    jobs += [_or_interval(rng, s) for s in shapes]
    for _ in range(2):
        jobs.append({"cmd": "zeta-lab", "args": [
            "--family", rng.choice(("normal", "t3")),
            "--seed", str(rng.randint(0, 10**6))]})
    jobs.append({"cmd": "tour", "args": [
        "--n", str(rng.randint(10, 60)),
        "--alpha", _fmt(rng.choice((0.005, 0.025, 0.05)))]})
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"or-study": or_study, "info-grid": info_grid,
             "quick-queries": quick_queries}


def job_list(workload: str, seed: int) -> list:
    """The workload's job list for ``seed``; the same seed, the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def job_key(job: dict) -> str:
    """A job's identity: its command and arguments, without output paths."""
    return " ".join([job["cmd"]] + job["args"])
