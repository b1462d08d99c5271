"""Output checks for each workload, against references computed without coinseer.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from datetime import date, timedelta

import numpy as np

from archives import DAY0, TRACKED_EVENTS, Archive

#: Relative tolerance on the ablation's per-variant RMSPE against the reference.
RMSPE_RTOL = 1e-6
#: Absolute tolerance on Pearson r and distance correlation against numpy.
CORR_ATOL = 1e-9
#: Columns whose distance correlation is recomputed by brute force each pass.
DCOR_SAMPLE = 16


def read_ranking(path: str) -> list[list]:
    """ranking.csv rows as [model, signals, [rmspe per j], mean]."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [[r[0], r[1], [float(v) for v in r[2:-1]], float(r[-1])] for r in rows[1:]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RMSPE_RTOL * max(abs(a), abs(b))


def check_ablate(out_dir: str, reference: list[list], experiments: int) -> list[str]:
    """Every experiment succeeded; ranking and RMSPE match the reference."""
    problems = []
    with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    if len(results) != experiments:
        problems.append(f"{len(results)} results, expected {experiments}")
    errors = [r for r in results if r.get("error")]
    if errors:
        problems.append(f"{len(errors)} experiments errored")
    got = read_ranking(os.path.join(out_dir, "ranking.csv"))
    if len(got) != len(reference):
        return problems + [f"{len(got)} ranked variants, reference has {len(reference)}"]
    for rank, (row, ref) in enumerate(zip(got, reference), start=1):
        tied = _close(row[3], ref[3])
        if row[:2] != ref[:2] and not tied:
            problems.append(f"rank {rank}: {row[0]} {row[1]}, reference {ref[0]} {ref[1]}")
    by_label = {(r[0], r[1]): r for r in reference}
    for row in got:
        ref = by_label.get((row[0], row[1]))
        if ref is None:
            problems.append(f"variant {row[0]} {row[1]} not in reference")
            continue
        values = row[2] + [row[3]]
        expected = ref[2] + [ref[3]]
        if len(values) != len(expected) or not all(map(_close, values, expected)):
            problems.append(f"{row[0]} {row[1]}: rmspe {values}, reference {expected}")
    return problems


def check_forecast(stdout_lines: list[str], archive: Archive, j: int) -> list[str]:
    """The forecast JSON has a finite positive prediction at anchor + j."""
    try:
        payload = json.loads(stdout_lines[-1])
        anchor = date.fromisoformat(payload["anchor_date"])
        target = date.fromisoformat(payload["target_date"])
        pred = float(payload["prediction_usd"])
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable forecast output: {exc}"]
    problems = []
    if not (math.isfinite(pred) and pred > 0):
        problems.append(f"prediction_usd {pred} is not finite and positive")
    if target != anchor + timedelta(days=j):
        problems.append(f"target_date {target} is not anchor_date {anchor} + {j}")
    last_day = date.fromisoformat(DAY0) + timedelta(days=archive.days - 1)
    if anchor != last_day:
        problems.append(f"anchor_date {anchor}, last archive day {last_day}")
    return problems


def _quartile_rows(groups: np.ndarray, values: np.ndarray, days: int) -> np.ndarray:
    out = np.zeros((days, 3))
    order = np.argsort(groups, kind="stable")
    bounds = np.searchsorted(groups[order], np.arange(days + 1))
    for d in range(days):
        chunk = values[order[bounds[d] : bounds[d + 1]]]
        if chunk.size:
            out[d] = np.percentile(chunk, [25, 50, 75])
    return out


def expected_signals(archive: Archive, coin: int = 0) -> tuple[list[str], np.ndarray]:
    """Every signal column `correlate` reports for one coin, recomputed
    from the generator's ground truth in coinseer's column order."""
    truth = archive.coins[coin]
    days = archive.days
    events = np.zeros((days, len(TRACKED_EVENTS)))
    np.add.at(events, (truth.event_day, truth.event_type), 1.0)
    names = ["gh_watch", "gh_fork"] + [f"gh_all_{e.lower()}" for e in TRACKED_EVENTS] + ["r_vol"]
    cols = [events[:, 0], events[:, 1]] + [events[:, i] for i in range(len(TRACKED_EVENTS))]
    cols.append(np.bincount(truth.comment_day, minlength=days).astype(float))

    lengths = np.diff(truth.token_offsets)
    owner = np.repeat(np.arange(lengths.size), lengths)
    totals = np.bincount(truth.token_ids, minlength=len(archive.names))
    ranked = sorted(
        (t for t in range(len(archive.names)) if totals[t] > 0),
        key=lambda t: (-totals[t], archive.names[t]),
    )[: archive.vocab_size]
    slot = np.full(len(archive.names), -1)
    slot[ranked] = np.arange(len(ranked))
    hit = slot[truth.token_ids] >= 0
    lang = np.zeros((days, len(ranked)))
    np.add.at(lang, (truth.comment_day[owner[hit]], slot[truth.token_ids[hit]]), 1.0)
    row_sum = lang.sum(axis=1, keepdims=True)
    lang = np.divide(lang, row_sum, out=np.zeros_like(lang), where=row_sum > 0)
    names += [f"r_lang_{archive.names[t]}" for t in ranked]
    cols += list(lang.T)

    names += ["r_score_q1", "r_score_q2", "r_score_q3"]
    cols += list(_quartile_rows(truth.comment_day, truth.comment_score.astype(float), days).T)

    pol = np.zeros(len(archive.names))
    subj = np.zeros(len(archive.names))
    in_lex = np.zeros(len(archive.names), dtype=bool)
    for t, (p, s) in archive.lexicon.items():
        pol[t], subj[t], in_lex[t] = p, s, True
    lex = in_lex[truth.token_ids]
    n_lex = np.bincount(owner[lex], minlength=lengths.size)
    comment_pol = np.bincount(owner[lex], pol[truth.token_ids[lex]], minlength=lengths.size)
    comment_subj = np.bincount(owner[lex], subj[truth.token_ids[lex]], minlength=lengths.size)
    has = n_lex > 0
    comment_pol[has] /= n_lex[has]
    comment_subj[has] /= n_lex[has]
    names += [f"r_pol_q{i}" for i in (1, 2, 3)] + [f"r_subj_q{i}" for i in (1, 2, 3)]
    cols += list(_quartile_rows(truth.comment_day, comment_pol, days).T)
    cols += list(_quartile_rows(truth.comment_day, comment_subj, days).T)
    return names, np.column_stack(cols)


def brute_dcor(x: np.ndarray, y: np.ndarray) -> float:
    """Distance correlation by its O(n^2) definition (Szekely et al. 2007)."""

    def centered(v: np.ndarray) -> np.ndarray:
        d = np.abs(v[:, None] - v[None, :])
        return d - d.mean(axis=0)[None, :] - d.mean(axis=1)[:, None] + d.mean()

    a, b = centered(x), centered(y)
    dvar = (a * a).mean() * (b * b).mean()
    if dvar == 0.0:
        return 0.0
    return math.sqrt(max(0.0, (a * b).mean()) / math.sqrt(dvar))


def check_correlation(path: str, names: list[str], matrix: np.ndarray, high: np.ndarray,
                      rng: np.random.Generator) -> list[str]:
    """Pearson r of every column against numpy; distance correlation of a
    sample of columns against the brute-force definition."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if [r[0] for r in rows] != names:
        return [f"{len(rows)} columns reported, expected {len(names)} in generator order"]
    problems = []
    for i, row in enumerate(rows):
        col = matrix[:, i]
        if col.std() == 0.0:
            if row[1] != "---":
                problems.append(f"{row[0]}: constant column has pearson_r {row[1]}")
            continue
        r = float(np.corrcoef(col, high)[0, 1])
        if row[1] == "---" or abs(float(row[1]) - r) > CORR_ATOL:
            problems.append(f"{row[0]}: pearson_r {row[1]}, numpy {r!r}")
    for i in rng.choice(len(rows), size=min(DCOR_SAMPLE, len(rows)), replace=False):
        expected = brute_dcor(matrix[:, i], high)
        if abs(float(rows[i][3]) - expected) > CORR_ATOL:
            problems.append(f"{rows[i][0]}: distance_corr {rows[i][3]}, brute force {expected!r}")
    return problems[:10]
