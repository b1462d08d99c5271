"""The benchmark's smoke run: every workload at tiny size, traced and
untraced, must report every metric and pass its output checks. The tracer
reads what emit_report and save_results write, so a change there shows
here and not only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and lines, proc.stdout + proc.stderr
    assert lines[-1] == '{"smoke": "pass"}', proc.stdout + proc.stderr
