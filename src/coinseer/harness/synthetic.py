"""Synthetic coins: a regime-switching price walk plus social chatter
whose volume and tone track the price level, so extracted signals carry
real predictive correlation."""

from __future__ import annotations

import math
from datetime import date, datetime, time, timedelta, timezone
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from ..ingest import EVENT_TYPES, CommentRecord, EventRecord, PriceSeries, daily_calendar
from ..signals import FAMILIES, bundled_lexicon
from .grid import DataBundle, assemble_coin, derive_seed

SYNTH_COIN_NAMES = (
    "alphacoin",
    "betacoin",
    "gammacoin",
    "deltacoin",
    "epsiloncoin",
    "zetacoin",
    "etacoin",
    "thetacoin",
)

SYNTH_START = date(2020, 1, 1)

_NEUTRAL_WORDS = (
    "the", "a", "of", "to", "and", "is", "on", "for", "this", "that",
    "price", "market", "coin", "wallet", "blockchain", "miner", "node",
    "fee", "network", "update", "release", "exchange", "chart", "trade",
    "volume", "block", "hash", "ledger", "supply", "today",
)

_BULL_WORDS = ("moon", "bullish", "pump", "buy", "good", "great", "profit", "hodl")

_BEAR_WORDS = ("crash", "bearish", "dump", "sell", "bad", "fear", "panic", "loss")

_WORD_POOL = _NEUTRAL_WORDS + _BULL_WORDS + _BEAR_WORDS

#: Per-type base and price-coupled Poisson rates for GitHub events.
_EVENT_RATES = {
    "Watch": (2.0, 28.0),
    "Fork": (1.0, 10.0),
    "Issues": (1.0, 6.0),
    "IssueComment": (2.0, 9.0),
    "Push": (3.0, 5.0),
    "CommitComment": (0.5, 2.0),
    "PullRequest": (1.0, 4.0),
    "PullRequestReviewComment": (0.5, 3.0),
}


def _day_epoch(day: date) -> int:
    return int(datetime.combine(day, time(), tzinfo=timezone.utc).timestamp())


def _check_days(days: int) -> None:
    if days < 30:
        raise ValueError(f"need at least 30 days, got {days}")


def generate_synthetic_coin(
    name: str, seed: int, days: int
) -> tuple[PriceSeries, list[CommentRecord], list[EventRecord]]:
    """One coin's price series, Reddit comments, and GitHub events.

    The log price follows a regime-switching random walk. Daily event
    and comment counts are Poisson draws whose rates rise with the
    normalized log price, comment tone leans bullish or bearish with
    the current drift regime, and comment scores drift with price, so
    every extracted signal family varies and the popularity signals
    correlate positively with price.
    """
    _check_days(days)
    rng = np.random.default_rng(seed)
    calendar = daily_calendar(SYNTH_START, SYNTH_START + timedelta(days=days - 1))

    log_price = np.empty(days)
    drift_sign = np.empty(days)
    level = math.log(float(np.exp(rng.uniform(math.log(5.0), math.log(2000.0)))))
    bull = True
    for d in range(days):
        if rng.random() < 0.04:
            bull = not bull
        drift = 0.004 if bull else -0.0035
        level += drift + 0.035 * rng.standard_normal()
        log_price[d] = level
        drift_sign[d] = 1.0 if bull else -1.0

    close = np.exp(log_price)
    open_ = np.empty(days)
    open_[0] = close[0] * math.exp(0.01 * rng.standard_normal())
    open_[1:] = close[:-1]
    wick_hi = np.abs(rng.standard_normal(days)) * 0.012
    wick_lo = np.abs(rng.standard_normal(days)) * 0.012
    high = np.maximum(open_, close) * np.exp(wick_hi)
    low = np.minimum(open_, close) * np.exp(-wick_lo)
    price = PriceSeries(
        coin=name, dates=calendar, open=open_, high=high, low=low, close=close
    )

    span = log_price.max() - log_price.min()
    z = (log_price - log_price.min()) / span if span > 0 else np.full(days, 0.5)
    returns = np.diff(log_price, prepend=log_price[0])

    events: list[EventRecord] = []
    repo = f"{name}/{name}"
    for d in range(days):
        day_start = _day_epoch(calendar[d])
        for event_type in EVENT_TYPES:
            base, coupled = _EVENT_RATES[event_type]
            count = int(rng.poisson(base + coupled * z[d]))
            if count:
                for offset in rng.integers(0, 86400, count):
                    events.append(EventRecord(day_start + int(offset), repo, event_type))

    comments: list[CommentRecord] = []
    n_pool = len(_WORD_POOL)
    n_neutral = len(_NEUTRAL_WORDS)
    n_bull = len(_BULL_WORDS)
    for d in range(days):
        day_start = _day_epoch(calendar[d])
        rate = 20.0 + 180.0 * z[d] + 800.0 * abs(returns[d])
        count = int(rng.poisson(rate))
        if count == 0:
            continue
        bull_p = 0.22 if drift_sign[d] > 0 else 0.08
        bear_p = 0.08 if drift_sign[d] > 0 else 0.22
        probs = np.empty(n_pool)
        probs[:n_neutral] = (1.0 - bull_p - bear_p) / n_neutral
        probs[n_neutral : n_neutral + n_bull] = bull_p / n_bull
        probs[n_neutral + n_bull :] = bear_p / len(_BEAR_WORDS)
        lengths = rng.integers(3, 12, count)
        words = rng.choice(n_pool, int(lengths.sum()), p=probs)
        offsets = rng.integers(0, 86400, count)
        scores = np.rint(rng.normal(2.0 + 10.0 * z[d], 8.0, count)).astype(int)
        pos = 0
        for c in range(count):
            body = " ".join(_WORD_POOL[w] for w in words[pos : pos + lengths[c]])
            pos += lengths[c]
            comments.append(
                CommentRecord(day_start + int(offsets[c]), name, body, int(scores[c]))
            )
    comments.sort()
    events.sort()
    return price, comments, events


def synthetic_coin_names(n_coins: int, days: int) -> tuple[str, ...]:
    """The names of ``n_coins`` synthetic coins, after checking that that
    many coins of ``days`` days can be generated."""
    if not 1 <= n_coins <= len(SYNTH_COIN_NAMES):
        raise ValueError(
            f"synthetic coin count must lie in [1, {len(SYNTH_COIN_NAMES)}], got {n_coins}"
        )
    _check_days(days)
    return SYNTH_COIN_NAMES[:n_coins]


def synthetic_coins(
    master_seed: int, days: int, names: Iterable[str]
) -> Iterator[tuple[str, PriceSeries, list[CommentRecord], list[EventRecord]]]:
    """Each named coin with its price series, comments and events, one at
    a time. Each coin has its own seed, so a coin is the same whichever
    others are generated with it."""
    for name in names:
        yield name, *generate_synthetic_coin(name, derive_seed(master_seed, "synth", name), days)


def synthetic_bundle(
    master_seed: int,
    days: int,
    names: Sequence[str],
    families: Collection[str] = FAMILIES,
) -> DataBundle:
    """A ready-to-run bundle of the named synthetic_coins on one shared
    calendar, with the signal ``families`` extracted."""
    lexicon = bundled_lexicon()
    return DataBundle(coins={
        name: assemble_coin(price, comments, events, lexicon, families)
        for name, price, comments, events in synthetic_coins(master_seed, days, names)
    })
