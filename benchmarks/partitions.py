"""Does the partition thread pool pay?  Times tall-search and wide-collide
at partitions=1 and partitions=2 in one process, alternating which goes
first, and checks that both give the same selection.

    python3 benchmarks/partitions.py [--seed 0] [--pairs 6]
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import time

from worker import WORKLOADS, parse_input, run_belief


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=6)
    args = ap.parse_args()
    for name in ("tall-search", "wide-collide"):
        w = WORKLOADS[name]
        inp = w.make(args.seed)
        base = w.config(args.seed)
        run_belief(parse_input(w, inp), base)  # warm-up, untimed
        wall = {1: [], 2: []}
        cpu = {1: [], 2: []}
        picks = {}
        for i in range(args.pairs):
            for p in ((1, 2) if i % 2 == 0 else (2, 1)):
                t0, c0 = time.perf_counter(), time.process_time()
                res = run_belief(parse_input(w, inp), dataclasses.replace(base, partitions=p))
                wall[p].append(time.perf_counter() - t0)
                cpu[p].append(time.process_time() - c0)
                picks.setdefault(p, res.selected_features())
        wins = sum(b < a for a, b in zip(wall[1], wall[2]))
        print(f"{name} seed {args.seed}: same selection {picks[1] == picks[2]}")
        for p in (1, 2):
            q1, _, q3 = statistics.quantiles(wall[p], n=4)
            print(f"  partitions={p}: run_s median {statistics.median(wall[p]):.3f} "
                  f"(q1 {q1:.3f}, q3 {q3:.3f}), cpu_s median {statistics.median(cpu[p]):.3f}")
        print(f"  partitions=2 faster in {wins}/{args.pairs} pairs")


if __name__ == "__main__":
    main()
