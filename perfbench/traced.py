"""Run one benchmark operation in-process with tracing spans.

    PYTHONPATH=src python3 perfbench/traced.py --spans OUT.npz --trace-id 3 \
        --main gbmjump.cli -- fit --model gbm-jump --input data/sp500_synthetic.csv

Imports --main (timed, as span "cli.import"), wraps every public function of
the gbmjump modules in a span, rebinding it both in its defining module and in
every module that imported it by name, then calls the target's main(argv).
Spans stay in memory and are written to --spans at the end; the seconds that
writing took go to the sidecar OUT.npz.json so callers can take it off the
process wall time.

numpy is imported only after the timed import, so the import span includes it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "series", "gbm", "gibbs", "jumps", "predict", "diagnostics")


class Tracer:
    """Spans as (name id, start ns, end ns, parent span index or -1)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.stack = [-1]

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def record(self, name: str, start: int, end: int) -> None:
        self.spans.append((self._name_id(name), start, end, self.stack[-1]))

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap public functions of each layer module and rebind every alias."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules.get(f"gbmjump.{layer}")
            if module is None:  # not imported by this target: cannot run
                continue
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        modules = [
            module for name, module in sys.modules.items()
            if name == "gbmjump" or name.startswith("gbmjump.")
        ]
        for module in [*modules, *extra_modules]:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def save(self, path: str, trace_id: int) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            spans=np.array(self.spans, dtype=np.int64).reshape(-1, 4),
            trace_id=trace_id,
        )


def main() -> int:
    parser = argparse.ArgumentParser(description="run one traced operation")
    parser.add_argument("--spans", required=True, help=".npz file for the spans")
    parser.add_argument("--trace-id", type=int, required=True)
    parser.add_argument("--main", required=True, help="module whose main(argv) to run")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    start = time.perf_counter_ns()
    target = importlib.import_module(args.main)
    tracer.record("cli.import", start, time.perf_counter_ns())
    tracer.install([target])
    entry = target.main
    if not hasattr(entry, "__wrapped__"):
        entry = tracer.wrap(f"{args.main}.main", entry)
    code = entry(argv)
    start = time.perf_counter()
    tracer.save(args.spans, args.trace_id)
    with open(args.spans + ".json", "w") as fh:
        json.dump({"dump_s": time.perf_counter() - start}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
