"""Run one genestim job with every public function of the package traced.

    PYTHONPATH=src python3 perfbench/trace_runner.py SPANS.json CMD [ARGS...]

CMD is a ``genestim`` CLI command, run through ``genestim.cli.main``, or
``tour`` for ``perfbench/tour.py``.  Before the job starts, each public
function of ``families``, ``estimation``, ``intervals``, ``oddsratio`` and
``location``, each kernel exported by ``genestim._kernels``, and
``ExpectationEngine.expect_se`` is wrapped in a span.  Modules bind
kernels and helpers by name at import, so every module-level name that
refers to a wrapped function is rebound, in every genestim module.  Spans
stay in memory and are written to SPANS.json once, when the job ends:
``{"names": [...], "spans": [[name_index, start, end, parent], ...],
"counts": {...}}`` with times from ``time.perf_counter`` and parent -1 for
a top-level span.  The job's exit status is passed on.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import sys
import time

NAMES: list = []
SPANS: list = []
STACK: list = []
COUNTS: dict = {}

LAYER_MODULES = ("families", "estimation", "intervals", "oddsratio",
                 "location")


def _size(*arrays) -> int:
    import numpy as np
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


# kernel name -> number of elements or rows passed in
KERNEL_ROWS = {
    "invert_p1_batch": lambda a, k: _size(a[0], a[1]),
    "sbar_profiled_batch": lambda a, k: _size(a[0], a[1], a[4], a[5]),
    "zinterval_p1_batch": lambda a, k: _size(a[0]),
    "t3_mle_batch": lambda a, k: len(_atleast_2d(a[0])),
}


def _atleast_2d(x):
    import numpy as np
    return np.atleast_2d(np.asarray(x))


def _name_id(name: str) -> int:
    NAMES.append(name)
    return len(NAMES) - 1


def _count(key: str, n: int):
    COUNTS[key] = COUNTS.get(key, 0) + n


def traced(fn, name: str, before=None, after=None):
    """``fn`` wrapped in a span; ``before(args, kwargs)`` and
    ``after(args, kwargs, result)`` may add to the counts."""
    nid = _name_id(name)
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = len(SPANS)
        SPANS.append(None)
        parent = STACK[-1] if STACK else -1
        STACK.append(idx)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            STACK.pop()
            SPANS[idx] = (nid, t0, t1, parent)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _counted(fn, key: str):
    def wrapper(*args, **kwargs):
        COUNTS[key] = COUNTS.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def _expect_outcomes(args, kwargs):
    engine, family = args[0], args[1]
    if engine.mode == "exact":
        _count("families.expect.outcomes", len(family.support.outcomes))
    else:
        _count("families.expect.outcomes", engine.replications)


def _comparison_after(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    _count("location.draws", config.reps * config.n)
    _count("location.t3_mle_failures", result.failures)


def install():
    """Wrap the package's public functions where their callers look them up."""
    import genestim
    import genestim._kernels as kernels
    import genestim.cli as cli
    from genestim import families, location, oddsratio

    layer_mods = {name: getattr(genestim, name) for name in LAYER_MODULES}
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer, mod in layer_mods.items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                after = (_comparison_after if obj is location.run_comparison
                         else None)
                wrappers[id(obj)] = (obj, traced(obj, f"{layer}.{name}",
                                                 after=after))
    for name in kernels.__all__:
        obj = getattr(kernels, name)
        if callable(obj):
            short = name.removesuffix("_batch")
            rows = KERNEL_ROWS[name]
            wrappers[id(obj)] = (obj, traced(
                obj, f"kernels.{short}",
                before=lambda a, k, key=f"kernels.{short}.rows", f=rows:
                _count(key, f(a, k))))
    for mod in (genestim, kernels, cli, *layer_mods.values()):
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    engine = families.ExpectationEngine
    engine.expect_se = traced(engine.expect_se, "families.expect",
                              before=_expect_outcomes)
    oddsratio.logsumexp = _counted(oddsratio.logsumexp,
                                   "oddsratio.cond_law_evals")


def _run_cli(argv) -> int:
    from genestim import cli
    try:
        cli.main.main(args=argv, prog_name="genestim")
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    return 0


def _run_tour(argv) -> int:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "tour.py")
    spec = importlib.util.spec_from_file_location("perfbench_tour", path)
    tour = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tour)
    return tour.main(argv)


def main(argv) -> int:
    out_path, cmd, rest = argv[0], argv[1], argv[2:]
    install()
    if cmd == "tour":
        run = traced(_run_tour, "tour.main")
    else:
        run = traced(_run_cli, "cli.main")
        rest = [cmd] + rest
    code = 1
    try:
        code = run(rest)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"names": NAMES, "spans": SPANS, "counts": COUNTS}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
