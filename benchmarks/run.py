"""Benchmark of beliefsel's selection pipeline.

    python3 benchmarks/run.py --workload tall-search --seed 0 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, in turn

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  Each
workload runs in a fresh worker process (worker.py) that builds the input
from the seed, then times whole selections for ``--seconds``.  Several
more workers only set up, so ``setup_s`` is a median.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
the per-layer metrics of the traced run (spans are written to
``benchmarks/out/``).  The lines above it are a readable report.

Exit status: 0 when every selection passed the output check, 1 when one
failed or the worker broke, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import LAYER_METRICS  # noqa: E402

# Set-up is timed in fresh processes until there are at least this many
# samples covering at least this much time (a few seconds of samples keep
# the median of a 0.3 s set-up steady), and never more than the cap.
SETUP_MIN_SAMPLES, SETUP_MIN_TOTAL_S, SETUP_MAX_SAMPLES = 5, 3.0, 15
# Headroom past --seconds for set-up, the last selection and the report.
WORKER_GRACE_S = 120

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def percentile_note(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{p:g}={q[round(p * 10) - 1]:.4f} (n={n})"
    return f"no percentile has >=10 samples beyond it (n={n})"


def start_worker(workload: str, seed: int, seconds: float, trace: int,
                 setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = json.loads(proc.stdout.readline() or "null")
        setup_s = time.perf_counter() - t0
        if not ready or ready.get("event") != "ready":
            raise RuntimeError(f"worker for {workload} ended during set-up")
        return proc, setup_s, ready
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def wait_worker(proc, timeout: float) -> str:
    """The rest of the worker's stdout, once it has exited cleanly."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Return (readable report lines, result object for the last line)."""
    setups, digests = [], set()
    while len(setups) < SETUP_MAX_SAMPLES - 1 and (
            len(setups) < SETUP_MIN_SAMPLES - 1 or sum(setups) < SETUP_MIN_TOTAL_S):
        proc, setup_s, ready = start_worker(workload, seed, seconds, trace, True)
        wait_worker(proc, WORKER_GRACE_S)
        setups.append(setup_s)
        digests.add(ready["digest"])
    proc, setup_s, ready = start_worker(workload, seed, seconds, trace, False)
    setups.append(setup_s)
    digests.add(ready["digest"])
    doc = json.loads(wait_worker(proc, seconds + WORKER_GRACE_S).splitlines()[-1])
    if len(digests) != 1:
        raise RuntimeError(f"set-up is not deterministic: digests {sorted(digests)}")

    env = doc["env"]
    lines = [
        f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}",
        f"   commit {env['commit']}  src sha256 {env['src_sha256'][:16]}",
        f"   nproc={env['nproc']} (affinity {env['affinity']})  cpu={env['cpu_model']!r}",
        f"   python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
        f"thread env {env['thread_env'] or 'unset'}",
        f"   input sha256 {doc['digest']}",
        f"   config {doc['config']}",
    ]
    attempted, failed = doc["attempted"], doc["failed"]
    metrics = {}
    if trace:
        metrics, layer_lines = layer_metrics(doc)
        lines += layer_lines
    else:
        values = {
            "run_s": statistics.median(doc["run_s"]) if doc["run_s"] else None,
            "cpu_s": statistics.median(doc["cpu_s"]) if doc["cpu_s"] else None,
            "peak_rss_mb": doc["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        notes = {
            "run_s": percentile_note(doc["run_s"]),
            "cpu_s": percentile_note(doc["cpu_s"]),
            "peak_rss_mb": f"after set-up {ready['setup_rss_mb']:.1f} MB; "
                           f"after the last call {doc['final_rss_mb']:.1f} MB",
            "setup_s": f"median of {len(setups)}: " + " ".join(f"{s:.3f}" for s in setups),
        }
        for name, unit in END_TO_END.items():
            v = values[name]
            if v is not None:
                metrics[name] = {"value": v, "unit": unit}
            shown = "n/a" if v is None else f"{v:.4f}"
            lines.append(f"   {name:<12} {shown:>12} {unit:<3} {notes[name]}")
        warm = "failed" if doc["warmup_s"] is None else f"{doc['warmup_s']:.3f}"
        lines.append(f"   run_s samples after an untimed warm-up call ({warm} s): "
                     + " ".join(f"{v:.3f}" for v in doc["run_s"]))
        if ready["setup_rss_mb"] >= doc["peak_rss_mb"]:
            lines.append("   WARNING: set-up peaked at or above the run; "
                         "peak_rss_mb measures set-up")
    success = doc["success"]
    ref = "recorded reference" if doc["reference_recorded"] else "first call of the run"
    lines.append(f"   success      {statistics.median(success) if success else 'n/a'} score "
                 f"(selected {doc['selected']}, checked against the {ref})")
    lines.append(f"   fail_rate    {failed / attempted:.4f} ratio ({failed} of {attempted} "
                 "selections raised or failed the output check)")
    for err in doc["errors"]:
        lines.append("   FAILED: " + err.strip().splitlines()[-1])
    if doc.get("trace_file"):
        lines.append(f"   spans written to {doc['trace_file']}")
    correct = failed == 0 and (bool(doc["layers"]) if trace else bool(doc["run_s"]))
    return lines, {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def layer_metrics(doc: dict):
    layers = doc["layers"]
    lines = [f"   traced selections {len(layers)}, untraced {len(doc['run_s'])}"]
    if doc["absent_spans"]:
        lines.append(f"   absent spans (not in beliefsel.selection): {doc['absent_spans']}")
    traced = statistics.median(doc["traced_run_s"]) if doc["traced_run_s"] else None
    plain = statistics.median(doc["run_s"]) if doc["run_s"] else None
    derived = {
        "selection.success": statistics.median(doc["success"]) if doc["success"] else None,
        "trace.overhead_frac": traced / plain - 1 if traced and plain else None,
    }
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name in derived:
            v = derived[name]
        else:
            vals = [per[name] for per in layers if per.get(name) is not None]
            v = statistics.median(vals) if vals else None
        # A layer that did not run is reported as 0 and marked n/a here.
        metrics[name] = {"value": 0 if v is None else v, "unit": unit}
        shown = "n/a" if v is None else f"{v:.6g}"
        lines.append(f"   {name:<26} {shown:>14} {unit}")
    if traced:
        acc = statistics.median(per["accounted_s"] for per in layers)
        lines.append(f"   traced run_s {traced:.4f} s; span self times sum to "
                     f"{acc:.4f} s ({acc / traced:.2%})")
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "beliefsel" / "__init__.py").is_file():
        print(f"no beliefsel source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; known: all, "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        try:
            lines, result = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
