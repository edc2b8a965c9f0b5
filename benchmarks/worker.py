"""One workload in one process: set up, then time selections until the
run's seconds are used up.

Started by run.py, never by hand.  Talks JSON lines on stdout: a ``ready``
line as soon as set-up is done (run.py times interpreter start to that
line as set-up), then one ``done`` line with every sample.  With
``--setup-only`` it exits after the ``ready`` line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# BLAS gets one thread unless the caller says otherwise: the partition
# threads already fill the cores, and BLAS threads on top of them make the
# timings swing with the scheduler.  The report prints the setting used.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import beliefsel  # noqa: E402
from beliefsel import parse_libsvm, run_belief, success_score  # noqa: E402
import beliefsel.selection as selection_module  # noqa: E402

from spans import ROOT as ROOT_SPAN, PARSE, RUN, Tracer, accounted, selection_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"
# Weights must match the reference within this share of the largest
# reference weight (the tolerance test_09 holds batch splits to).
WEIGHT_RTOL = 1e-9


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):  # layout differs by numpy version
        blas = "unknown"
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        commit = r.stdout.strip() or commit
    src = hashlib.sha256()
    for p in sorted((SRC / "beliefsel").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    threads = {k: os.environ[k] for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
        if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": threads,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def parse_input(w, inp):
    """The Dataset handed to run_belief: parsed text, or the generated one."""
    if w.text_input:
        return parse_libsvm(io.StringIO(inp.payload), n_features=inp.truth.n_features)
    return inp.payload


class OutputCheck:
    """Compares each selection with the recorded reference for this seed,
    or, on a seed without one, with the first selection of the run."""

    def __init__(self, workload: str, seed: int, n_select: int):
        refs = json.loads(REFERENCE.read_text()).get(workload, {})
        self.ref = refs.get(str(seed))
        self.recorded = self.ref is not None
        self.n_select = n_select

    def __call__(self, result) -> str | None:
        """None when the result passes, else what is wrong with it."""
        sel = result.selected_features()
        w = np.asarray(result.weights.values, dtype=np.float64)
        if len(sel) != self.n_select or len(set(sel)) != len(sel):
            return f"selection {sel} is not {self.n_select} distinct features"
        if not np.all(np.isfinite(w)):
            return "non-finite weights"
        if self.ref is None:
            self.ref = {"selected": sel, "weights": w.tolist()}
            return None
        if sel != self.ref["selected"]:
            return f"selected {sel} != reference {self.ref['selected']}"
        ref_w = np.asarray(self.ref["weights"])
        if ref_w.shape != w.shape:
            return f"{w.size} weights != reference {ref_w.size}"
        tol = WEIGHT_RTOL * float(np.abs(ref_w).max())
        worst = float(np.abs(w - ref_w).max())
        if worst > tol:
            return f"weights off the reference by {worst:.3g} > {tol:.3g}"
        return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not Path(beliefsel.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"beliefsel imported from {beliefsel.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    config = w.config(args.seed)
    inp = w.make(args.seed)
    emit({"event": "ready", "setup_rss_mb": max_rss_mb(), "digest": inp.digest})
    if args.setup_only:
        return 0

    def select(tracer=None):
        if tracer is None:
            return run_belief(parse_input(w, inp), config)
        with tracer.span(ROOT_SPAN):
            if w.text_input:
                with tracer.span(PARSE):
                    ds = parse_input(w, inp)
            else:
                ds = parse_input(w, inp)
            with tracer.span(RUN):
                return run_belief(ds, config)

    check = OutputCheck(args.workload, args.seed, config.n_select)
    tracer = Tracer() if args.trace else None
    absent: list = []
    run_s, cpu_s, traced_s, layers, successes, errors = [], [], [], [], [], []
    attempted = failed = 0
    warm_s = None
    start = time.perf_counter()
    while True:
        attempted += 1
        # Call 1 warms allocator arenas and caches and is not timed; then
        # traced and untraced calls alternate when tracing.
        warm = attempted == 1
        traced = bool(args.trace) and attempted % 2 == 0
        try:
            if traced:
                tracer.sel = attempted
                with tracer.patched(selection_module) as absent:
                    t0, c0 = time.perf_counter(), time.process_time()
                    result = select(tracer)
                    t1, c1 = time.perf_counter(), time.process_time()
            else:
                t0, c0 = time.perf_counter(), time.process_time()
                result = select()
                t1, c1 = time.perf_counter(), time.process_time()
            problem = check(result)
        except Exception:
            problem = traceback.format_exc()
        if problem is not None:
            failed += 1
            errors.append(problem)
            print(f"selection {attempted} failed: {problem}", file=sys.stderr)
        else:
            successes.append(success_score(result.selected_features(), inp.truth))
            if traced:
                spans = tracer.selection_spans(attempted)
                per = selection_layers(spans)
                per["accounted_s"] = accounted(spans)
                layers.append(per)
                traced_s.append(t1 - t0)
            elif warm:
                warm_s = t1 - t0
            else:
                run_s.append(t1 - t0)
                cpu_s.append(c1 - c0)
        if warm:
            # Peak of set-up plus one selection: later calls only add
            # allocator reuse noise, which varies from run to run.
            first_rss_mb = max_rss_mb()
        if traced:
            tracer.release(attempted)
        result = None
        elapsed = time.perf_counter() - start
        done = run_s + traced_s
        typical = sorted(done)[len(done) // 2] if done else elapsed / attempted
        missing = not run_s or (args.trace and not traced_s)
        if missing and attempted < 5:
            continue
        if elapsed + typical > args.seconds:
            break

    env = environment(args.seed)
    doc = {
        "event": "done",
        "workload": args.workload,
        "config": vars(config),
        "env": env,
        "digest": inp.digest,
        "reference_recorded": check.recorded,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:3],
        "warmup_s": warm_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "traced_run_s": traced_s,
        "layers": layers,
        "absent_spans": absent,
        "success": successes,
        "selected": check.ref["selected"] if check.ref else None,
        "peak_rss_mb": first_rss_mb,
        "final_rss_mb": max_rss_mb(),
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "env": env, "digest": inp.digest,
            "spans": [s.to_json_obj() for s in tracer.spans],
            "layers": layers, "absent_spans": absent}, indent=1))
        doc["trace_file"] = str(path.relative_to(ROOT))
    emit(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
