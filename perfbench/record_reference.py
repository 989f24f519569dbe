"""Record the reference outputs that ``check.py`` compares jobs against.

    python3 perfbench/record_reference.py

Runs the job list of every workload at seed 0, the shipped seed, checks
each job against its oracles and writes every number it produced to
``perfbench/reference.json``, keyed by the job's command and arguments.
Run it only on a commit whose outputs are known to be right: the
references are what later commits are held to.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import check
import jobs as joblists
import run

SEED = 0


def main() -> int:
    env, _ = run.job_env(len(os.sched_getaffinity(0)))
    (run.HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ref", dir=run.HERE / ".work"))
    references = {}
    try:
        for workload in joblists.WORKLOADS:
            for job in joblists.job_list(workload, SEED):
                out_dir = Path(tempfile.mkdtemp(prefix="job", dir=work))
                rec = run.spawn(run.job_argv(job, out_dir, False), env,
                                out_dir)
                stdout = (out_dir / "stdout.txt").read_text()
                values, problems = check.check_job(job, out_dir, stdout)
                key = joblists.job_key(job)
                if rec["rc"] != 0 or problems:
                    print(f"{key}: exit {rec['rc']}, {problems}",
                          file=sys.stderr)
                    return 1
                references[key] = values
                print(f"{rec['wall']:7.2f} s  {key}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(references)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
