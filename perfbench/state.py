"""Re-measure the ROADMAP's "State" figures with the benchmark's tracer.

usage: python3 perfbench/state.py

Runs the pinned ablation (``ablate --synthetic --days 600 --k 1 --j 1..3
--seed 7``) and ``correlate`` over ``synth --days 600 --coins 2 --seed 7``
once each, traced, and prints one JSON object: the ablation's wall time,
``assemble_coin`` seconds per coin, one Adam step's median milliseconds,
and ``correlation_table`` milliseconds per column. The ablation alone
takes about five minutes on two cores. Wall times here include the
tracer's overhead, which trace.overhead_s puts at about 1% or less.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys

import layers
from run import HERE, SRC, run_command


def traced(argv: list[str], work: str) -> tuple[float, list[list]]:
    trace_file = os.path.join(work, "trace.json")
    cmd = run_command(argv, trace_file, work, timeout=3600.0)
    if cmd.code != 0:
        raise SystemExit(f"{argv[0]} exited {cmd.code}: " + " | ".join(cmd.stream("err")[-3:]))
    with open(trace_file, encoding="utf-8") as fh:
        return cmd.wall, json.load(fh)["spans"]


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "coinseer", "cli.py")):
        print(f"error: no coinseer sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", f"state-{os.getpid()}")
    os.makedirs(work)
    try:
        wall, spans = traced(
            ["ablate", "--synthetic", "--days", "600", "--k", "1", "--j", "1..3",
             "--seed", "7", "--out", os.path.join(work, "run")],
            work,
        )
        assemble = [s[2] - s[1] for s in spans if s[0] == "harness.grid.assemble_coin"]
        adam = [s[2] - s[1] for s in spans if s[0] == "lstm.adam_step"]
        data = os.path.join(work, "data")
        cmd = run_command(["synth", "--days", "600", "--coins", "2", "--seed", "7",
                           "--out", data], None, work)
        if cmd.code != 0:
            raise SystemExit(f"synth exited {cmd.code}")
        _, corr_spans = traced(["correlate", "--config", os.path.join(data, "config.json"),
                                "--out", os.path.join(work, "corr")], work)
        per_layer, _ = layers.pass_metrics(corr_spans, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "pinned_ablation_wall_s": wall,
        "assemble_coin_s_per_coin": statistics.median(assemble),
        "adam_step_ms_p50": 1000.0 * statistics.median(adam),
        "correlation_table_ms_per_column": per_layer["stats.ms_per_column"],
        "correlation_columns": per_layer["stats.columns"],
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
