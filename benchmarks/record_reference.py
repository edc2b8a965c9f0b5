"""Record the output-check reference: the selected features and the full
weight vector of each workload on the default seed (0) and one held-out
seed (1).

    python3 benchmarks/record_reference.py

Run it only on a commit whose selections are known good; every later
benchmark run is checked against what it writes.
"""

from __future__ import annotations

import json

from worker import REFERENCE, WORKLOADS, parse_input, run_belief

SEEDS = (0, 1)


def main() -> None:
    refs = {}
    for name, w in sorted(WORKLOADS.items()):
        refs[name] = {}
        for seed in SEEDS:
            inp = w.make(seed)
            res = run_belief(parse_input(w, inp), w.config(seed))
            refs[name][str(seed)] = {
                "selected": res.selected_features(),
                "weights": res.weights.values.tolist(),
            }
            print(name, seed, res.selected_features(), flush=True)
    REFERENCE.write_text(json.dumps(refs) + "\n")


if __name__ == "__main__":
    main()
