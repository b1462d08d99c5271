"""Seeded input archives: price CSV, Reddit NDJSON, GitHub NDJSON, lexicon.

The archives look like real dumps: one Reddit file and one GitHub file
shared by every configured coin, most of whose lines belong to other
subreddits and repositories or to untracked event types, plus a few
malformed lines (well under coinseer's 1% tolerance). Comment bodies are
drawn from a Zipf vocabulary, and some tokens are in the lexicon.

``generate`` returns the ground truth it wrote (per-day activity of each
configured coin) so that checks can recompute every signal column
without coinseer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

EPOCH0 = 1420070400  # 2015-01-01T00:00:00Z
DAY0 = "2015-01-01"
DAY = 86400

COIN_NAMES = ("bitcoin", "ethereum", "monero", "dash")
FOREIGN_SUBREDDITS = ("askreddit", "politics", "funny", "gaming", "worldnews", "litecoin")
FOREIGN_REPOS = ("torvalds/linux", "numpy/numpy", "golang/go", "rust-lang/rust")
TRACKED_EVENTS = (
    "Watch", "Fork", "Issues", "IssueComment",
    "Push", "CommitComment", "PullRequest", "PullRequestReviewComment",
)
TRACKED_WEIGHTS = np.array([0.22, 0.08, 0.1, 0.2, 0.25, 0.02, 0.08, 0.05])
UNTRACKED_EVENTS = ("Create", "Delete", "Release", "Gollum", "Member", "Public")
#: Every LEXICON_EVERY-th of the LEXICON_RANGE most frequent tokens is in the lexicon.
LEXICON_EVERY = 5
LEXICON_RANGE = 2000

_CONSONANTS = "bcdfghjklmnprstvwxyz"
_SYLLABLES = [c + v for c in _CONSONANTS for v in "aeiou"]


@dataclass(frozen=True)
class Spec:
    """Shape of one generated data set."""

    days: int
    coins: int
    comments_per_day: float  # per configured coin, on an average day
    foreign_per_comment: float  # foreign Reddit lines per configured comment
    words_per_comment: float
    distinct_tokens: int  # size of the Zipf vocabulary
    events_per_day: float  # tracked events per configured repo and day
    foreign_per_event: float  # foreign or untracked GitHub lines per tracked event
    malformed_rate: float  # share of lines in each NDJSON file
    vocab_size: int  # written to the config: r_lang column cap


def token_name(i: int) -> str:
    """Distinct lowercase word for token id i (bijective base-100 syllables)."""
    out = _SYLLABLES[i % 100]
    while i >= 100:
        i = i // 100 - 1
        out += _SYLLABLES[i % 100]
    return out


@dataclass
class CoinTruth:
    name: str
    high: np.ndarray  # daily price high, as written
    comment_day: np.ndarray
    comment_score: np.ndarray
    token_offsets: np.ndarray  # CSR offsets into token_ids, one row per comment
    token_ids: np.ndarray
    event_day: np.ndarray
    event_type: np.ndarray  # index into TRACKED_EVENTS


@dataclass
class Archive:
    config: str
    days: int
    vocab_size: int
    names: list[str]  # token id -> word
    lexicon: dict[int, tuple[float, float]]
    coins: list[CoinTruth]
    stats: dict  # line, byte and token counts of the written files
    files: dict[str, tuple[int, int]]  # absolute path of each archive -> (lines, bytes)


def _zipf_sampler(rng: np.random.Generator, distinct: int):
    ranks = np.arange(1, distinct + 1, dtype=np.float64)
    cdf = np.cumsum(1.0 / (ranks + 2.7) ** 1.07)
    cdf /= cdf[-1]
    return lambda count: np.minimum(np.searchsorted(cdf, rng.random(count)), distinct - 1)


def _bodies(rng, sample, names, count, words):
    lengths = 1 + rng.poisson(words - 1, count)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    ids = sample(int(offsets[-1]))
    words_out = [names[t] for t in ids.tolist()]
    bodies = [" ".join(words_out[offsets[i] : offsets[i + 1]]) for i in range(count)]
    return bodies, offsets, ids


def _price(rng, days, level):
    step = rng.normal(0.002, 0.035, days)
    close = level * np.exp(np.cumsum(step))
    open_ = np.concatenate(([level], close[:-1]))
    open_, close = np.round(open_, 4), np.round(close, 4)
    high = np.round(np.maximum(open_, close) * (1 + np.abs(rng.normal(0, 0.02, days))), 4)
    low = np.round(np.minimum(open_, close) * (1 - np.abs(rng.normal(0, 0.02, days))), 4)
    high = np.maximum(high, np.maximum(open_, close))
    low = np.minimum(low, np.minimum(open_, close))
    return open_, high, low, close


def _write_lines(path: str, ts: np.ndarray, lines: list[str]) -> tuple[int, int]:
    order = np.argsort(ts, kind="stable")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[i] for i in order.tolist())
    return len(lines), os.path.getsize(path)


def _junk(rng, count, ts_range):
    kinds = ('{"body": "unterminated', "not json at all", '{"created_utc": 5}', "[1, 2,")
    ts = rng.integers(0, ts_range, count)
    return ts, [kinds[i % len(kinds)] + "\n" for i in range(count)]


def generate(spec: Spec, out_dir: str, seed: int, core_seed: int | None = None) -> Archive:
    """Write one data set into ``out_dir`` and return its ground truth.

    The configured coins' prices, comments and events come from
    ``core_seed`` (default ``seed``); foreign and malformed lines always
    come from ``seed``, as does the order in which lines are interleaved.
    """
    os.makedirs(out_dir, exist_ok=True)
    core = np.random.default_rng([0, seed] if core_seed is None else [1, core_seed])
    noise = np.random.default_rng([2, seed])
    names = [token_name(i) for i in range(spec.distinct_tokens)]
    lexicon = {
        i: (round(float(core.uniform(-1, 1)), 3), round(float(core.uniform(0, 1)), 3))
        for i in range(0, min(LEXICON_RANGE, spec.distinct_tokens), LEXICON_EVERY)
    }
    core_sample = _zipf_sampler(core, spec.distinct_tokens)
    noise_sample = _zipf_sampler(noise, spec.distinct_tokens)
    span = spec.days * DAY
    reddit_ts, reddit_lines = [], []
    github_ts, github_lines = [], []
    coins = []
    config_coins = []
    for c in range(spec.coins):
        name = COIN_NAMES[c]
        open_, high, low, close = _price(core, spec.days, 50.0 * (c + 1))
        with open(os.path.join(out_dir, f"price_{name}.csv"), "w", encoding="utf-8") as fh:
            fh.write("date,open,high,low,close\n")
            dates = np.datetime_as_string(np.datetime64(DAY0) + np.arange(spec.days))
            for d in range(spec.days):
                fh.write(f"{dates[d]},{open_[d]:.4f},{high[d]:.4f},{low[d]:.4f},{close[d]:.4f}\n")
        # Activity follows the price, but the totals are fixed so that every
        # seed gives the program the same amount of work.
        activity = close**0.7 / (close**0.7).sum()
        per_day = core.multinomial(round(spec.comments_per_day * spec.days), activity)
        comment_day = np.repeat(np.arange(spec.days), per_day)
        ts = EPOCH0 + comment_day * DAY + core.integers(0, DAY, comment_day.size)
        score = core.poisson(4.0, comment_day.size) - 1
        bodies, offsets, ids = _bodies(core, core_sample, names, comment_day.size, spec.words_per_comment)
        for t, s, b in zip(ts.tolist(), score.tolist(), bodies):
            reddit_lines.append(
                f'{{"body":"{b}","created_utc":{t},"score":{s},"subreddit":"{name}"}}\n'
            )
        reddit_ts.append(ts)
        per_day = core.multinomial(round(spec.events_per_day * spec.days), activity)
        event_day = np.repeat(np.arange(spec.days), per_day)
        event_type = core.choice(len(TRACKED_EVENTS), event_day.size, p=TRACKED_WEIGHTS)
        ts = EPOCH0 + event_day * DAY + core.integers(0, DAY, event_day.size)
        stamps = np.datetime_as_string(ts.astype("datetime64[s]"))
        repo = f"{name}/{name}"
        for st, et in zip(stamps.tolist(), event_type.tolist()):
            github_lines.append(
                f'{{"created_at":"{st}Z","repo":{{"name":"{repo}"}},"type":"{TRACKED_EVENTS[et]}Event"}}\n'
            )
        github_ts.append(ts)
        coins.append(CoinTruth(name, high, comment_day, score, offsets, ids, event_day, event_type))
        config_coins.append({
            "name": name,
            "price_csv": f"price_{name}.csv",
            "reddit_ndjson": "reddit.ndjson",
            "subreddit": name,
            "github_ndjson": "github.ndjson",
            "repo": repo,
        })
    configured_comments = sum(c.comment_day.size for c in coins)
    configured_events = sum(c.event_day.size for c in coins)

    n = int(configured_comments * spec.foreign_per_comment)
    ts = EPOCH0 + noise.integers(0, span, n)
    subs = noise.integers(0, len(FOREIGN_SUBREDDITS), n)
    score = noise.poisson(4.0, n) - 1
    bodies, _, _ = _bodies(noise, noise_sample, names, n, spec.words_per_comment)
    for t, si, s, b in zip(ts.tolist(), subs.tolist(), score.tolist(), bodies):
        reddit_lines.append(
            f'{{"body":"{b}","created_utc":{t},"score":{s},"subreddit":"{FOREIGN_SUBREDDITS[si]}"}}\n'
        )
    reddit_ts.append(ts)
    n_bad_reddit = int(len(reddit_lines) * spec.malformed_rate)
    ts, junk = _junk(noise, n_bad_reddit, span)
    reddit_lines.extend(junk)
    reddit_ts.append(EPOCH0 + ts)

    n = int(configured_events * spec.foreign_per_event)
    ts = EPOCH0 + noise.integers(0, span, n)
    stamps = np.datetime_as_string(ts.astype("datetime64[s]"))
    untracked = noise.random(n) < 0.3
    repos = noise.integers(0, len(FOREIGN_REPOS), n)
    kinds = noise.integers(0, 8, n)
    for c_i in range(n):
        if untracked[c_i]:
            repo = f"{COIN_NAMES[c_i % spec.coins]}/{COIN_NAMES[c_i % spec.coins]}"
            etype = UNTRACKED_EVENTS[kinds[c_i] % len(UNTRACKED_EVENTS)]
        else:
            repo = FOREIGN_REPOS[repos[c_i]]
            etype = TRACKED_EVENTS[kinds[c_i]]
        github_lines.append(
            f'{{"created_at":"{stamps[c_i]}Z","repo":{{"name":"{repo}"}},"type":"{etype}Event"}}\n'
        )
    github_ts.append(ts)
    n_bad_github = int(len(github_lines) * spec.malformed_rate)
    ts, junk = _junk(noise, n_bad_github, span)
    github_lines.extend(junk)
    github_ts.append(EPOCH0 + ts)

    reddit_count, reddit_bytes = _write_lines(
        os.path.join(out_dir, "reddit.ndjson"), np.concatenate(reddit_ts), reddit_lines
    )
    github_count, github_bytes = _write_lines(
        os.path.join(out_dir, "github.ndjson"), np.concatenate(github_ts), github_lines
    )
    with open(os.path.join(out_dir, "lexicon.tsv"), "w", encoding="utf-8") as fh:
        for i, (pol, subj) in lexicon.items():
            fh.write(f"{names[i]}\t{pol}\t{subj}\n")
    config = os.path.join(out_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(
            {"coins": config_coins, "vocab_size": spec.vocab_size, "lexicon": "lexicon.tsv"},
            fh, indent=1, sort_keys=True,
        )
    files = {
        os.path.abspath(os.path.join(out_dir, "reddit.ndjson")): (reddit_count, reddit_bytes),
        os.path.abspath(os.path.join(out_dir, "github.ndjson")): (github_count, github_bytes),
    }
    for c in coins:
        path = os.path.abspath(os.path.join(out_dir, f"price_{c.name}.csv"))
        files[path] = (spec.days + 1, os.path.getsize(path))
    price_bytes = sum(b for path, (_, b) in files.items() if path.endswith(".csv"))
    seen = np.unique(np.concatenate([c.token_ids for c in coins]))
    stats = {
        "days": spec.days,
        "coins": spec.coins,
        "lines": sum(n for n, _ in files.values()),
        "bytes": sum(b for _, b in files.values()),
        "reddit_lines": reddit_count,
        "github_lines": github_count,
        "reddit_bytes": reddit_bytes,
        "github_bytes": github_bytes,
        "price_bytes": price_bytes,
        "comments": configured_comments,
        "events": configured_events,
        "foreign_lines": (reddit_count - configured_comments - n_bad_reddit)
        + (github_count - configured_events - n_bad_github),
        "malformed_lines": n_bad_reddit + n_bad_github,
        "distinct_tokens": int(seen.size),
        "lexicon_tokens": len(lexicon),
    }
    return Archive(config, spec.days, spec.vocab_size, names, lexicon, coins, stats, files)
