"""genestim benchmark: seeded job lists run as a user runs them.

    python3 perfbench/run.py --workload or-study --seed 0 --seconds 15 --trace 0

Run from the repository root.  A single closed-loop client runs the
workload's job list (see ``jobs.py``) serially, one cold
``python -m genestim.cli ...`` subprocess at a time with ``PYTHONPATH=src``
and BLAS threads capped at the CPU count, and checks every job's output
(``check.py``).  It repeats the whole list while another pass fits in
``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
``wall_s`` (seconds to run the job list, the sum of its jobs' spawn-to-exit
times; median over passes), ``job_s_p50`` (median job time), ``cpu_s``
(user+sys CPU of the jobs per pass, median over passes), ``peak_rss_mb``
(largest max-RSS of any job) and ``setup_s`` (median time of three bare
``python -c "import genestim.cli"`` runs, two before the passes and one
after: the start-up every job pays).

``--trace 1`` runs the job list once untraced and once through
``trace_runner.py``, which wraps the package's public functions in spans,
and reports the per-layer metrics: self time and call counts per module
and function, work counts, import times from ``-X importtime``, kernels
timed alone (``kernel_iso.py``) and the tracing overhead.

Human-readable lines go first, with the job_s_tail percentile and
failed_frac that the JSON does not carry; the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  ``--out FILE`` also
writes the full result, with its environment block and every job, for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import check
import jobs as joblists

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
JOB_TIMEOUT_S = 150
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
ACCOUNTING_TOL = 0.03
BLAS_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """\
import json, platform, numpy, scipy, genestim, genestim.cli
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "genestim": genestim.__version__,
                  "kernel_backend": genestim.KERNEL_BACKEND}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to run, or it will not start)."""


def job_env(nproc: int) -> tuple:
    """(environment for the jobs, the BLAS thread caps it sets)."""
    env = dict(os.environ)
    # jobs must find the .pyc files the warm-up run leaves, as users' do
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    caps = {name: str(nproc) for name in BLAS_CAP_VARS}
    env.update(caps)
    return env, caps


def spawn(argv: list, env: dict, out_dir: Path) -> dict:
    """Run ``python argv`` to completion; wall time, exit code and rusage."""
    with open(out_dir / "stdout.txt", "wb") as fo, \
            open(out_dir / "stderr.txt", "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdout=fo, stderr=fe)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - t0
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    return {"wall": wall, "rc": proc.returncode,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def job_argv(job: dict, out_dir: Path, traced: bool) -> list:
    args = list(job["args"])
    if job["cmd"] == "tour":
        args += ["--out", str(out_dir / "tour.json")]
        entry = [str(HERE / "tour.py")]
    else:
        if job["cmd"] != "verify":
            args += ["--out-dir", str(out_dir)]
        entry = ["-m", "genestim.cli"]
    if traced:
        return [str(HERE / "trace_runner.py"), str(out_dir / "spans.json"),
                job["cmd"], *args]
    return [*entry, *([job["cmd"]] if job["cmd"] != "tour" else []), *args]


def run_pass(job_list: list, work: Path, env: dict, traced: bool,
             log) -> list:
    """Run every job once, serially, then check them all; a record per job."""
    records = []
    for job in job_list:
        out_dir = Path(tempfile.mkdtemp(prefix="job", dir=work))
        rec = spawn(job_argv(job, out_dir, traced), env, out_dir)
        rec.update(key=joblists.job_key(job), cmd=job["cmd"], dir=out_dir)
        records.append(rec)
    request = [{"job": job, "dir": str(rec["dir"])}
               for job, rec in zip(job_list, records) if rec["rc"] == 0]
    problems = iter(check_outputs(request, env, work))
    for job, rec in zip(job_list, records):
        if rec["rc"] != 0:
            err = (rec["dir"] / "stderr.txt").read_text(errors="replace")
            rec["problems"] = [f"exit status {rec['rc']}: "
                               + " ".join(err.split()[-20:])]
        else:
            rec["problems"] = next(problems)
        if traced and (rec["dir"] / "spans.json").exists():
            rec["trace"] = summarize_trace(
                json.loads((rec["dir"] / "spans.json").read_text()), job)
        log(f"  {rec['wall']:8.3f} s  cpu {rec['cpu']:7.3f} s  "
            f"rss {rec['rss_mb']:6.1f} MB  "
            f"{'ok  ' if not rec['problems'] else 'FAIL'} {rec['key']}"
            + "".join(f"\n      ! {p}" for p in rec["problems"]))
        shutil.rmtree(rec.pop("dir"))
    return records


def check_outputs(request: list, env: dict, work: Path) -> list:
    """Problem lists for finished jobs, from ``check.py`` in a subprocess."""
    if not request:
        return []
    with open(work / "check_request.json", "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    with open(work / "check_request.json", "rb") as fin:
        proc = subprocess.run([sys.executable, str(HERE / "check.py")],
                              cwd=ROOT, env=env, stdin=fin,
                              capture_output=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("check.py failed: "
                         + proc.stderr.decode(errors="replace")[-2000:])
    return json.loads(proc.stdout)


# --- traces ---------------------------------------------------------------


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.

    ``spans`` holds ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span, or -1 at the top level.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (_, start, end, _) in enumerate(spans)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize_trace(raw: dict, job: dict) -> dict:
    """Per-name calls and self time, top-level time and counts of one job."""
    names = raw["names"]
    spans = [(names[s[0]], s[1], s[2], s[3]) for s in raw["spans"]]
    calls: dict = {}
    self_s: dict = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    # oddsratio time, kernels and helpers it calls included, in jobs that
    # enumerate the (n1+1)(n2+1) outcome grid
    odds_s, outcomes = 0.0, 0
    if job["cmd"] in ("or-coverage", "or-endpoint-tails"):
        opts = check.parse_args(job["args"])
        outcomes = (int(opts.get("n1", 20)) + 1) * (int(opts.get("n2", 30)) + 1)
        odds_s = sum(end - start for name, start, end, parent in spans
                     if layer_of(name) == "oddsratio"
                     and (parent < 0 or layer_of(spans[parent][0])
                          != "oddsratio"))
    return {"calls": calls, "self_s": self_s, "top_s": top,
            "counts": raw["counts"], "odds_s": odds_s, "outcomes": outcomes}


KERNELS = ("invert_p1", "sbar_profiled", "zinterval_p1", "t3_mle")
LAYERS = ("cli", "tour", "kernels", "families", "estimation", "intervals",
          "oddsratio", "location")
CALLS = ("families.expect", "families.score", "families.fisher_info",
         "families.two_binomial_probs", "estimation.information",
         "estimation.check_score_equation", "intervals.ci_z",
         "intervals.tail_z_adjusted_ci", "oddsratio.fisher_exact_interval",
         "oddsratio.coverage_z", "oddsratio.coverage_fisher",
         "oddsratio.score_tail_at", "oddsratio.z_interval",
         "location.run_comparison") + tuple(f"kernels.{k}" for k in KERNELS)
SELF = CALLS + ("estimation.orthogonalized_score", "location.zeta_curves")
CURVES = ("intervals.score_curves", "intervals.llr_curves",
          "intervals.curves_to_rows")
COUNTS = tuple(f"kernels.{k}.rows" for k in KERNELS) + (
    "families.expect.outcomes", "oddsratio.cond_law_evals", "location.draws",
    "location.t3_mle_failures")


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics of one traced pass, against an untraced one."""
    calls: dict = {}
    self_s: dict = {}
    counts = {key: 0 for key in COUNTS}
    top = odds_s = 0.0
    outcomes = 0
    for rec in traced:
        tr = rec.get("trace")
        if tr is None:
            continue
        for name, n in tr["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in tr["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for key, n in tr["counts"].items():
            counts[key] = counts.get(key, 0) + n
        top += tr["top_s"]
        odds_s += tr["odds_s"]
        outcomes += tr["outcomes"]
    wall_t = sum(rec["wall"] for rec in traced)
    wall_u = sum(rec["wall"] for rec in untraced)
    out = {f"{name}.calls": calls.get(name, 0) for name in CALLS}
    out.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF})
    out.update(counts)
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, s in self_s.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + s
    out.update({f"{layer}.self_s": s for layer, s in by_layer.items()})
    out["intervals.curves.self_s"] = sum(self_s.get(n, 0.0) for n in CURVES)
    out["oddsratio.us_per_outcome"] = (odds_s / outcomes * 1e6 if outcomes
                                       else 0.0)
    unattributed = wall_t - top
    out.update({
        "trace.wall_traced_s": wall_t, "trace.wall_untraced_s": wall_u,
        "trace.overhead_frac": (wall_t - wall_u) / wall_u,
        "trace.unattributed_s": unattributed,
        "trace.accounting_err_frac":
            abs(sum(by_layer.values()) + unattributed - wall_t) / wall_t,
    })
    return out


def import_times(env: dict, work: Path) -> dict:
    """Median cumulative import times (s) from ``python -X importtime``."""
    wanted = {"scipy.stats": "cli.import.scipy_stats_s",
              "scipy.special": "cli.import.scipy_special_s",
              "scipy.optimize": "cli.import.scipy_optimize_s"}
    samples: dict = {metric: [] for metric in
                     list(wanted.values()) + ["cli.import.genestim_s"]}
    for _ in range(IMPORTTIME_SAMPLES):
        if spawn(["-X", "importtime", "-c", "import genestim.cli"], env,
                 work)["rc"] != 0:
            raise BenchError("import genestim.cli failed")
        seen: dict = {}
        genestim_us = 0
        for line in (work / "stderr.txt").read_text().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            us = int(cumulative)
            seen.setdefault(name.strip(), us)
            if name.startswith(" genestim"):  # top level of the import
                genestim_us += us
        for module, metric in wanted.items():
            samples[metric].append(seen.get(module, 0) / 1e6)
        samples["cli.import.genestim_s"].append(genestim_us / 1e6)
    return {metric: statistics.median(v) for metric, v in samples.items()}


def kernel_iso(env: dict, work: Path) -> dict:
    rec = spawn([str(HERE / "kernel_iso.py")], env, work)
    if rec["rc"] != 0:
        raise BenchError("kernel_iso.py failed")
    ms = json.loads((work / "stdout.txt").read_text())
    return {f"kernels.{k}.iso_ms": ms[k] for k in KERNELS}


# --- environment and result -----------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def probe(env: dict, work: Path) -> dict:
    """Versions and kernel backend, from a job-like subprocess.

    Also the warm-up run: it leaves the package's ``.pyc`` files behind.
    """
    rec = spawn(["-c", PROBE], env, work)
    if rec["rc"] != 0:
        err = (work / "stderr.txt").read_text(errors="replace")
        raise BenchError(f"genestim does not start: {err.strip()[-500:]}")
    return json.loads((work / "stdout.txt").read_text())


def setup_samples(env: dict, work: Path, count: int) -> list:
    """Wall times of ``count`` bare ``import genestim.cli`` subprocesses."""
    walls = []
    for _ in range(count):
        rec = spawn(["-c", "import genestim.cli"], env, work)
        if rec["rc"] != 0:
            raise BenchError("import genestim.cli failed")
        walls.append(rec["wall"])
    return walls


def tail_stat(times: list):
    """(seconds, percentile) at the highest percentile with TAIL_BEYOND jobs
    beyond it, or None when there are too few jobs."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(joblists.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "genestim" / "cli.py").is_file():
        print(f"no genestim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    job_list = joblists.job_list(args.workload, args.seed)
    nproc = len(os.sched_getaffinity(0))
    env, caps = job_env(nproc)
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run", dir=HERE / ".work"))
    try:
        return measure(args, wanted, job_list, env, caps, nproc, work)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wanted, job_list, env, caps, nproc, work):
    def log(line):
        print(line, flush=True)

    environment = probe(env, work)
    environment.update(nproc=nproc, blas_thread_caps=caps,
                       git_commit=git_commit(), workload=args.workload,
                       seed=args.seed)
    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(job_list)} jobs per pass")
    log("env " + json.dumps(environment, sort_keys=True))

    metrics: dict = {}
    if args.trace:
        log("untraced pass:")
        untraced = run_pass(job_list, work, env, False, log)
        log("traced pass:")
        traced = run_pass(job_list, work, env, True, log)
        records = untraced + traced
        metrics.update(layer_metrics(traced, untraced))
        metrics.update(import_times(env, work))
        metrics.update(kernel_iso(env, work))
        accounting_ok = metrics["trace.accounting_err_frac"] <= ACCOUNTING_TOL
        passes = [untraced]
    else:
        # bare imports before and after the passes, so that a slow spell of
        # the machine moves fewer of them
        setup = setup_samples(env, work, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        passes = []
        t_begin = time.perf_counter()
        while True:
            log(f"pass {len(passes) + 1}:")
            passes.append(run_pass(job_list, work, env, False, log))
            elapsed = time.perf_counter() - t_begin
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        setup += setup_samples(env, work, SETUP_SAMPLES // 2)
        records = [rec for recs in passes for rec in recs]
        metrics.update(
            wall_s=statistics.median(sum(r["wall"] for r in recs)
                                     for recs in passes),
            job_s_p50=statistics.median(r["wall"] for r in records),
            cpu_s=statistics.median(sum(r["cpu"] for r in recs)
                                    for recs in passes),
            peak_rss_mb=max(r["rss_mb"] for r in records),
            setup_s=statistics.median(setup))
        accounting_ok = True

    failed = sum(1 for r in records if r["problems"])
    tail = tail_stat([r["wall"] for r in records])
    units = {m["name"]: m["unit"] for m in wanted}
    width = max(len(name) for name in units)
    for name, unit in units.items():
        log(f"{name:{width}s} {metrics[name]:14.6f} {unit}")
    if not args.trace:
        log(f"{'job_s_tail':{width}s} " + (
            f"{tail[0]:14.6f} s at p{tail[1]:.0f}, {TAIL_BEYOND} of "
            f"{len(records)} jobs beyond" if tail else
            f"{'n/a':>14s} ({len(records)} jobs; needs more than "
            f"{TAIL_BEYOND})"))
    log(f"{'failed_frac':{width}s} {failed / len(records):14.6f} "
        f"({failed} of {len(records)} jobs)")
    if not accounting_ok:
        log("layer self times plus unattributed time miss the traced wall "
            f"by more than {ACCOUNTING_TOL:.0%}")

    result = {"correct": failed == 0 and accounting_ok,
              "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    if args.out is not None:
        full = dict(result, environment=environment, all_metrics=metrics,
                    passes=len(passes),
                    job_s_tail=None if tail is None else
                    {"value": tail[0], "percentile": tail[1],
                     "jobs": len(records)},
                    jobs=[{k: v for k, v in r.items() if k != "trace"}
                          for r in records])
        args.out.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
