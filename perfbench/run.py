"""coinseer benchmark: three closed-loop workloads against the coinseer CLI.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke
  python3 perfbench/run.py --record-reference

Run from the root of a source checkout (the directory holding
``src/coinseer``). Each run generates its input archives from the seed,
spawns one CLI command at a time (closed loop, one client) and waits for
it, repeats the workload's command sequence until the measuring time is
used up, checks every output, and prints the metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With ``--trace 1`` the commands run under tracer.py and the metrics are
the per-layer ones. See perfbench/README.md for definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

import archives
import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

#: (metric name, unit), reported with tracing off on every workload.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("experiment_s_p50", "s"),
    ("experiment_s_p90", "s"),
    ("experiments_per_h", "1/h"),
    ("archive_mb_per_s", "MB/s"),
)
#: Setup probes per run (after one discarded warm-up).
SETUP_PROBES = 9
#: A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 150.0
#: Fixed data seed of the ablation archives' configured coin (see AblateK1).
ABLATE_CORE_SEED = 20190701


@dataclass
class Command:
    """One CLI invocation, as observed from outside."""

    argv: list[str]
    spawn: float = 0.0
    ready: float = math.nan
    end: float = 0.0
    code: int = -1
    max_rss_kb: int = 0
    lines: list[tuple[float, str, str]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.spawn

    def stream(self, tag: str) -> list[str]:
        return [text for _, t, text in self.lines if t == tag]


def run_command(argv: list[str], trace_file: str | None, work: str,
                timeout: float = COMMAND_TIMEOUT_S) -> Command:
    """Spawn the CLI through launch.py, timestamp its output lines, reap it."""
    cmd = Command(argv)
    ready_file = os.path.join(work, "ready")
    launcher = [sys.executable, os.path.join(HERE, "launch.py"), SRC, ready_file,
                trace_file or "-", "--", *argv]
    env = dict(os.environ, PYTHONUNBUFFERED="1")

    def reader(pipe, tag):
        for raw in iter(pipe.readline, b""):
            cmd.lines.append((time.monotonic(), tag, raw.decode("utf-8", "replace").rstrip("\n")))

    cmd.spawn = time.monotonic()
    proc = subprocess.Popen(launcher, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env)
    readers = [threading.Thread(target=reader, args=(proc.stdout, "out")),
               threading.Thread(target=reader, args=(proc.stderr, "err"))]
    for t in readers:
        t.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    cmd.end = time.monotonic()
    proc.returncode = cmd.code = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    cmd.max_rss_kb = usage.ru_maxrss
    try:
        with open(ready_file, encoding="utf-8") as fh:
            cmd.ready = float(fh.read())
        os.remove(ready_file)
    except (OSError, ValueError):
        pass
    return cmd


def experiment_times(cmd: Command, pattern: re.Pattern) -> list[tuple[str, float]]:
    """(line, seconds since the previous output line or the ready mark)
    for every output line that reports a finished experiment."""
    out = []
    prev = cmd.ready
    for t, _tag, text in sorted(cmd.lines):
        if pattern.search(text):
            out.append((text, t - prev))
        prev = t
    return out


@dataclass
class Workload:
    """A named workload: archive shape, command sequence and checks."""

    name: str
    why: str
    spec: dict  # mode ("full" or "smoke") -> archives.Spec
    core_seed: int | None = None

    def commands(self, archive, out: str, mode: str) -> Iterator[list[str]]:
        """The pass's argv lists, produced one at a time as commands finish."""
        raise NotImplementedError

    def experiments(self, cmds: list[Command]) -> tuple[list[float], int]:
        """Per-experiment seconds (for the percentiles) and experiments done."""
        raise NotImplementedError

    def check(self, archive, cmds: list[Command], out: str, mode: str, state: dict) -> list[str]:
        raise NotImplementedError


_GRID_LINE = re.compile(r"^\[(\S+)\] (rmspe|failed)")
_TRAIN_LINE = re.compile(r": \d+ epochs \(best \d+\)")
_CORR_LINE = re.compile(r"^wrote .*correlation_\w+\.csv")


class AblateK1(Workload):
    """`ablate --k 1 --j 1..3 --signals benchmark` at sizes 400,800.

    The configured coin's prices, comments and events come from a fixed
    data seed; the run seed draws the foreign and malformed lines and the
    line order, which coinseer's ingest provably ignores (it sorts
    records). So every seed has the same ranking, recorded once in
    reference.json at the seed commit.
    """

    grid = 15  # 3 ARIMA cells + 4 LSTM subsets x 3 horizons

    def commands(self, archive, out, mode):
        argv = ["ablate", "--config", archive.config, "--k", "1", "--j", "1..3",
                "--signals", "benchmark", "--epochs", "2", "--patience", "0",
                "--seed", "7", "--out", os.path.join(out, "run")]
        if mode == "smoke":
            argv += ["--sizes", "8,16"]
        yield argv

    def experiments(self, cmds):
        lines = experiment_times(cmds[0], _GRID_LINE)
        return [s for text, s in lines if "_lstm_" in text], len(lines)

    def check(self, archive, cmds, out, mode, state):
        found = map(_GRID_LINE.search, cmds[0].stream("err"))
        problems = [f"experiment {m.group(1)} failed" for m in found if m and m.group(2) == "failed"]
        if "reference" not in state:
            with open(REFERENCE, encoding="utf-8") as fh:
                state["reference"] = json.load(fh)
        reference = state["reference"].get(mode)
        if reference is None:
            return problems + [f"no reference ranking for mode {mode}; run --record-reference"]
        return problems + checks.check_ablate(os.path.join(out, "run"), reference, self.grid)


class TrainK7(Workload):
    """`train --signal-set r_vol --k 7 --j 1`, then `forecast` with the model."""

    j = 1

    def commands(self, archive, out, mode):
        argv = ["train", "--config", archive.config, "--signal-set", "r_vol",
                "--k", "7", "--j", str(self.j), "--epochs", "2", "--patience", "0",
                "--seed", "7", "--out", os.path.join(out, "model")]
        if mode == "smoke":
            argv += ["--sizes", "8,16"]
        yield argv
        # run_pass stops at a failed command, so train has written its model here.
        model = sorted(glob.glob(os.path.join(out, "model", "model_*.bin")))
        yield ["forecast", "--model", model[0] if model else "missing", "--config", archive.config]

    def experiments(self, cmds):
        lines = experiment_times(cmds[0], _TRAIN_LINE)
        return [s for _, s in lines], len(lines)

    def check(self, archive, cmds, out, mode, state):
        if not glob.glob(os.path.join(out, "model", "model_*.bin")):
            return ["train wrote no model file"]
        return checks.check_forecast(cmds[1].stream("out"), archive, self.j)


class Corpus(Workload):
    """`correlate` over real-dump-like archives; no LSTM."""

    def commands(self, archive, out, mode):
        yield ["correlate", "--config", archive.config, "--out", os.path.join(out, "corr")]

    def experiments(self, cmds):
        lines = experiment_times(cmds[0], _CORR_LINE)
        return [s for _, s in lines], len(lines)

    def check(self, archive, cmds, out, mode, state):
        if "expected" not in state:
            state["expected"] = checks.expected_signals(archive)
        names, matrix = state["expected"]
        path = os.path.join(out, "corr", f"correlation_{archive.coins[0].name}.csv")
        return checks.check_correlation(path, names, matrix, archive.coins[0].high,
                                        state["rng"])


#: 100 days of one coin: short enough for several LSTM passes per run.
SHORT = archives.Spec(days=100, coins=1, comments_per_day=30, foreign_per_comment=3,
                      words_per_comment=10, distinct_tokens=2000, events_per_day=10,
                      foreign_per_event=3, malformed_rate=0.002, vocab_size=100)
#: 600 days, 6,000 distinct tokens, 1,000 r_lang columns: one pass is about 27 s.
LONG = archives.Spec(days=600, coins=1, comments_per_day=80, foreign_per_comment=4,
                     words_per_comment=14, distinct_tokens=6000, events_per_day=25,
                     foreign_per_event=3, malformed_rate=0.002, vocab_size=1000)
#: Smoke-mode inputs for every workload.
TINY = archives.Spec(days=60, coins=1, comments_per_day=10, foreign_per_comment=2,
                     words_per_comment=6, distinct_tokens=300, events_per_day=5,
                     foreign_per_event=2, malformed_rate=0.002, vocab_size=40)

WORKLOADS = {
    w.name: w
    for w in (
        AblateK1(
            "ablate-k1",
            "the pinned ablation grid at k=1: LSTM training (Adam-dominated) is nearly all "
            "the time; ARIMA, windowing and report are small shares",
            {"full": SHORT, "smoke": TINY},
            core_seed=ABLATE_CORE_SEED,
        ),
        TrainK7(
            "train-k7",
            "BPTT through seven steps with live recurrent weights, a 36 MB model saved "
            "and loaded for inference; bypasses k=1-only and training-only shortcuts",
            {"full": SHORT, "smoke": TINY},
        ),
        Corpus(
            "corpus",
            "real-dump-like archives (mostly foreign lines, Zipf vocabulary, 600 days): "
            "ingest parsing, every signal extractor and the O(n^2) correlation table",
            {"full": LONG, "smoke": TINY},
        ),
    )
}


@dataclass
class Pass:
    """One execution of a workload's command sequence."""

    cmds: list[Command]
    traced: bool
    problems: list[str]
    spans: list[list] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.cmds)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_pass(w: Workload, archive, work: str, mode: str, traced: bool, state: dict) -> Pass:
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmds: list[Command] = []
    spans: list[list] = []
    problems: list[str] = []
    for i, argv in enumerate(w.commands(archive, out, mode)):
        trace_file = os.path.join(work, f"trace{i}.json") if traced else None
        cmd = run_command(argv, trace_file, work)
        cmds.append(cmd)
        if cmd.code != 0:
            tail = " | ".join(cmd.stream("err")[-3:])
            problems.append(f"{argv[0]} exited {cmd.code}: {tail}")
            break
        if trace_file:
            with open(trace_file, encoding="utf-8") as fh:
                offset = len(spans)
                for s in json.load(fh)["spans"]:
                    if s[3] >= 0:
                        s[3] += offset
                    spans.append(s)
    if not problems:
        try:
            problems = w.check(archive, cmds, out, mode, state)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
    return Pass(cmds, traced, problems, spans)


def blas_info() -> dict:
    """BLAS name, version and thread count as numpy was built and loaded."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit,
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool, mode: str, work: str) -> dict:
    """Generate inputs, probe setup, loop passes for ``seconds``, summarize."""
    archive = archives.generate(w.spec[mode], os.path.join(work, "data"), seed, w.core_seed)
    # Write the new archives back now, not during the first measured pass.
    os.sync()
    state = {"rng": np.random.default_rng([3, seed])}
    probes = [run_command(["--version"], None, work) for _ in range(SETUP_PROBES + 1)][1:]
    setups = [c.ready - c.spawn for c in probes]
    attempted = len(probes)
    failed = sum(1 for c in probes if c.code != 0)
    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(w, archive, work, mode, traced, state))
        walls = [p.wall for p in passes]
        elapsed = time.monotonic() - start
        need_both = trace and not any(p.traced for p in passes)
        if not need_both and elapsed + statistics.median(walls) > seconds:
            break
    for p in passes:
        attempted += len(p.cmds)
        failed += 1 if p.failed else 0
        setups += [c.ready - c.spawn for c in p.cmds if not math.isnan(c.ready)]
    plain = [p for p in passes if not p.traced]
    result = {
        "archive": archive,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "problems": [msg for p in passes for msg in p.problems],
        "setups": setups,
    }
    if trace:
        result["units"] = dict(layers.PER_LAYER)
        per_pass, kernels = [], {}
        for p in passes:
            if p.traced and not p.failed:
                values, k = layers.pass_metrics(p.spans, archive.files)
                per_pass.append(values)
                for name, d in k.items():
                    kernels.setdefault(name, []).extend(d)
        traced_walls = [p.wall for p in passes if p.traced and not p.failed]
        plain_walls = [p.wall for p in plain if not p.failed]
        if per_pass and plain_walls:
            overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
            result["metrics"] = layers.summarize(per_pass, kernels, overhead)
        return result
    result["metrics"], result["extra"] = end_to_end(w, plain, setups, archive)
    result["units"] = dict(END_TO_END)
    return result


def end_to_end(w: Workload, passes: list[Pass], setups: list[float], archive) -> tuple[dict, dict]:
    ok = [p for p in passes if not p.failed]
    if not ok:
        return {}, {}
    walls = [p.wall for p in ok]
    samples, done = [], 0
    for p in ok:
        s, n = w.experiments(p.cmds)
        samples += s
        done += n
    read_bytes = sum(len(p.cmds) for p in ok) * archive.stats["bytes"]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(c.max_rss_kb for c in p.cmds) / 1024 for p in ok),
        "experiment_s_p50": float(np.percentile(samples, 50)) if samples else math.nan,
        "experiment_s_p90": float(np.percentile(samples, 90)) if samples else math.nan,
        "experiments_per_h": 3600.0 * done / sum(walls),
        "archive_mb_per_s": read_bytes / 1e6 / sum(walls),
    }
    extra = {"passes": len(ok), "experiment_samples": len(samples)}
    if isinstance(w, TrainK7):
        extra["train_s"] = statistics.median(p.cmds[0].wall for p in ok)
        extra["forecast_s"] = statistics.median(p.cmds[1].wall for p in ok)
    return metrics, extra


def report(w: Workload, seed: int, trace: bool, result: dict, env: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    archive = result["archive"]
    print(f"workload {w.name} seed {seed} trace {int(trace)}: {w.why}")
    print("env " + json.dumps(env, sort_keys=True))
    print("input " + json.dumps(archive.stats, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    error_rate = failed / attempted
    units = result["units"]
    metrics = result.get("metrics", {})
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for name, value in result.get("extra", {}).items():
        unit = "s" if name.endswith("_s") else "count"
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'error_rate':40s} {error_rate:14.6g} ratio ({failed} of {attempted} operations)")
    walls = " ".join(f"{p.wall:.3f}{'t' if p.traced else ''}" for p in result["passes"])
    print(f"  pass walls (s, t = traced): {walls}")
    for msg in result["problems"][:20]:
        print(f"check failed: {msg}")
    complete = set(metrics) == set(units) and all(math.isfinite(v) for v in metrics.values())
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, mode: str) -> dict:
    w = WORKLOADS[name]
    work = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        result = measure(w, seed, seconds, trace, mode, work)
        return report(w, seed, trace, result, environment())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def smoke() -> int:
    """Every workload at tiny size, traced and untraced: every metric must
    appear with its unit and every output check must pass."""
    bad = []
    for name in WORKLOADS:
        for trace in (False, True):
            out = run_one(name, 1, 0.0, trace, "smoke")
            want = dict(layers.PER_LAYER if trace else END_TO_END)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                bad.append(f"{name} trace {int(trace)}: metrics {sorted(set(want) ^ set(got))} differ")
            if not out["correct"]:
                bad.append(f"{name} trace {int(trace)}: outputs failed their checks")
    for msg in bad:
        print(f"smoke: {msg}")
    print(json.dumps({"smoke": "fail" if bad else "pass"}))
    return 1 if bad else 0


def record_reference() -> int:
    """Run the ablation once per mode and store its ranking as the reference."""
    w = WORKLOADS["ablate-k1"]
    reference = {}
    for mode in ("smoke", "full"):
        work = os.path.join(HERE, ".work", f"reference-{mode}-{os.getpid()}")
        try:
            archive = archives.generate(w.spec[mode], os.path.join(work, "data"), 0, w.core_seed)
            out = os.path.join(work, "out")
            cmd = run_command(next(w.commands(archive, out, mode)), None, work)
            if cmd.code != 0:
                print("\n".join(cmd.stream("err")), file=sys.stderr)
                return 1
            reference[mode] = checks.read_ranking(os.path.join(out, "run", "ranking.csv"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "coinseer", "cli.py")):
        print(f"error: no coinseer sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
