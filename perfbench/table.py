"""Print every end-to-end metric, then each workload's layer table.

    python3 perfbench/table.py --seed 42 --seconds 30

Runs ``run.py`` once per workload with tracing off and once with
tracing on (the traced run covers every workload), each in its own
process, then prints the end-to-end metrics by name with their units,
the per-layer table of each workload (self time, share of the pass,
the end-to-end metric the layer should move, and an ``unattributed``
row so the rows account for the whole pass), and the tracing overhead
of the traced run against the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from metrics import WORKLOAD_NAMES, should_move

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(f"run.py failed for {workload} (trace={trace})")
    *_, detail_line, result_line = completed.stdout.splitlines()
    return (json.loads(detail_line.partition(" ")[2]),
            json.loads(result_line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    untraced = {w: run(w, args.seed, args.seconds, 0)
                for w in WORKLOAD_NAMES}
    traced_detail, traced = run(WORKLOAD_NAMES[0], args.seed,
                                args.seconds, 1)
    detail = untraced[WORKLOAD_NAMES[0]][0]
    print(f"backend {detail['backend']}, executor {detail['executor']}, "
          f"jobs {detail['jobs']}, {detail['cpu_count']} CPUs, "
          f"Python {detail['python']}, seed {args.seed}")
    print("\nEnd-to-end (tracing off)")
    for workload, (detail, result) in untraced.items():
        q1, _, q3 = detail["records_per_s_quartiles"]
        print(f"  {workload}: {detail['passes']} passes, "
              f"{detail['records_per_pass']} records/pass, "
              f"correct={result['correct']} "
              f"({result['failed']}/{result['attempted']} failed, "
              f"reference {detail['reference']}), "
              f"declines {detail['kernels.declines']}")
        for name, metric in result["metrics"].items():
            extra = (f"   [q1 {q1:,.0f}, q3 {q3:,.0f}]"
                     if name == "records_per_s" else "")
            print(f"    {name:16s} {metric['value']:16,.4f} "
                  f"{metric['unit']}{extra}")
    print(f"\nPer layer (traced run, correct={traced['correct']}, "
          f"{traced['failed']}/{traced['attempted']} failed)")
    for workload in WORKLOAD_NAMES:
        layers = traced_detail["layers"][workload]
        pass_s = traced_detail["pass_s"][workload]
        accounted = sum(v for k, v in layers.items() if k.endswith(".s"))
        print(f"  {workload}: median pass {pass_s:.3f} s over "
              f"{traced_detail['passes'][workload]} traced passes; "
              f"self times sum to {accounted:.3f} s")
        for name, value in layers.items():
            unit = traced["metrics"][f"{workload}.{name}"]["unit"]
            share = (f"{100 * value / pass_s:6.1f}%"
                     if name.endswith(".s") else " " * 7)
            print(f"    {name:34s} {value:16,.4f} {unit:5s} {share}  "
                  f"{should_move(name)}")
    fidelity = untraced["paper_warm"][0]["fidelity"]
    print("\nFidelity (information only; the model is otherwise "
          "unvalidated): directory indirections, % of misses")
    for workload, row in fidelity.items():
        print(f"  {workload:12s} paper {row['paper_pct']:5.1f}  "
              f"simulated {row['simulated_pct']:5.1f}")
    print("\nTracing overhead (calibrated records_per_s)")
    for workload, (_detail, result) in untraced.items():
        plain = result["metrics"]["records_per_s"]["value"]
        with_spans = traced_detail["layers"][workload][
            "traced.records_per_s"]
        print(f"  {workload:14s} untraced {plain:14,.0f}  traced "
              f"{with_spans:14,.0f}  overhead "
              f"{100 * (plain - with_spans) / plain:+.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
