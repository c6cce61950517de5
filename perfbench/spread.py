"""Run the benchmark once per seed and report each metric's median, quartiles
and spread (interquartile range over the median).

    python3 perfbench/spread.py --workload jump-fit jump-bands --seeds 1-10 \
        --seconds 30 --trace 0 --out perfbench/some-run.json

Quartiles are statistics.quantiles(values, n=4), as the acceptance rule for
the benchmark uses them. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    report = {}
    for workload in args.workload:
        metrics, envs, attempted, failed = {}, [], 0, 0
        for seed in args.seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
            env_line, result_line = lines.strip().splitlines()[-2:]
            result = json.loads(result_line)
            envs.append(json.loads(env_line)["env"])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, {"unit": metric["unit"], "values": []})
                metrics[name]["values"].append(metric["value"])
        unscaled = {}
        for env in envs:
            for name, value in env.get("unscaled", {}).items():
                unscaled.setdefault(name, []).append(value)
        report[workload] = {
            "env": envs[0],
            "ops": [e["ops"] for e in envs],
            "unscaled": {name: summarize(values) for name, values in unscaled.items()},
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"unit": m["unit"], **summarize(m["values"])}
                for name, m in metrics.items()
            },
        }
        print(f"{workload}: {len(args.seeds)} runs, {attempted} operations, {failed} failed")
        for name, m in report[workload]["metrics"].items():
            print(f"  {name:34s} {m['median']:>12.5g} {m['unit']:<6} "
                  f"q1 {m['q1']:<10.5g} q3 {m['q3']:<10.5g} spread {m['spread']:.3f}")
        for name, m in report[workload]["unscaled"].items():
            print(f"  unscaled {name:25s} {m['median']:>12.5g} s      "
                  f"q1 {m['q1']:<10.5g} q3 {m['q3']:<10.5g} spread {m['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
