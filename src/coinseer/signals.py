"""Daily social-signal extraction from comment and event archives.

Every extractor produces a SignalMatrix: one row per consecutive calendar
day, one named column per feature, float64 throughout. Matrices over the
same calendar can be concatenated column-wise.
"""

from __future__ import annotations

import csv
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date
from functools import cache
from importlib import resources
from itertools import count
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .ingest import (
    EVENT_TYPES,
    CommentRecord,
    EventRecord,
    PriceSeries,
)

#: Words are maximal runs of lowercase ascii letters and digits.
_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: bytes.translate table that keeps the bytes of [a-z0-9] and makes every
#: other byte a space, so that bytes.split finds the words of _TOKEN_RE.
_WORD_BYTES = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
                    for b in range(256))

#: Comments per bulk pass of comment_table. It bounds the pass's temporary
#: text, token objects and arrays, and the heap they leave fragmented: on a
#: 48,000-comment archive `correlate` peaked at 91 MB RSS with 4096, 86 MB
#: with 1024 and 84 MB with 512, where the table took 0.01 s longer (0.2 s).
_CHUNK = 512

DEFAULT_VOCAB_SIZE = 10000

#: Column name of the forecast target in assembled feature matrices.
PRICE_COLUMN = "price_high"

_GH_ALL_COLUMNS = tuple(f"gh_all_{name.lower()}" for name in EVENT_TYPES)
_GH_POP_COLUMNS = ("gh_watch", "gh_fork")
_R_VOL_COLUMNS = ("r_vol",)
_R_SCORE_COLUMNS = ("r_score_q1", "r_score_q2", "r_score_q3")
_R_SENT_COLUMNS = ("r_pol_q1", "r_pol_q2", "r_pol_q3", "r_subj_q1", "r_subj_q2", "r_subj_q3")
_LANG_PREFIX = "r_lang_"


@dataclass(frozen=True)
class SignalMatrix:
    """Per-day feature matrix over a consecutive calendar."""

    dates: tuple[date, ...]
    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.dates:
            raise ValueError("empty calendar")
        if self.values.shape != (len(self.dates), len(self.columns)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.dates)} days x {len(self.columns)} columns"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if (cur - prev).days != 1:
                raise ValueError(f"calendar gap before {cur}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite signal values")
        self.values.flags.writeable = False

    def column(self, name: str) -> np.ndarray:
        try:
            i = self.columns.index(name)
        except ValueError:
            raise ValueError(f"no column named {name!r}") from None
        return self.values[:, i]


@dataclass(frozen=True)
class Vocabulary:
    """Fixed token list with lookup index."""

    tokens: tuple[str, ...]
    index: Mapping[str, int] = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("empty vocabulary")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate vocabulary tokens")
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class SentimentLexicon:
    """token -> (polarity in [-1, 1], subjectivity in [0, 1])."""

    entries: Mapping[str, tuple[float, float]]

    def __post_init__(self) -> None:
        for token, (pol, subj) in self.entries.items():
            if not -1.0 <= pol <= 1.0:
                raise ValueError(f"polarity out of range for {token!r}")
            if not 0.0 <= subj <= 1.0:
                raise ValueError(f"subjectivity out of range for {token!r}")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on anything outside [a-z0-9].

    The one-text definition that ``comment_table`` computes in bulk and
    must equal for every body."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class CommentTable:
    """One row per comment, decided once, for every Reddit family: its
    calendar row (-1 outside the calendar), score, and tokens as ids into
    ``tokens``, the corpus's distinct tokens, in CSR form: comment c holds
    ``token_ids[offsets[c]:offsets[c + 1]]``."""

    calendar: tuple[date, ...]
    day: np.ndarray
    score: np.ndarray
    offsets: np.ndarray
    token_ids: np.ndarray
    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.day)


def _day_rows(created_utc: Sequence[int], calendar: Sequence[date]) -> np.ndarray:
    """The calendar row of each epoch timestamp: its UTC day minus the
    calendar's first day, -1 outside the calendar."""
    rows = np.array(created_utc, dtype=np.int64) // 86400 - (calendar[0] - date(1970, 1, 1)).days
    return np.where((rows >= 0) & (rows < len(calendar)), rows, -1)


def comment_table(comments: Sequence[CommentRecord], calendar: Sequence[date]) -> CommentTable:
    """Tokenize each comment and place it on ``calendar``, in bulk.

    Comments are read in chunks of ``_CHUNK``. Each chunk's lowercased
    bodies are joined by spaces and encoded as ascii with one "?" per other
    code point, every byte outside [a-z0-9] becomes a space, and the text is
    split once; a token belongs to the body whose span holds its first
    byte. So each comment's tokens are ``tokenize(body)``, and ids number
    the distinct tokens in order of first occurrence.
    """
    calendar = tuple(calendar)
    day = _day_rows([rec.created_utc for rec in comments], calendar)
    score = np.array([rec.score for rec in comments], dtype=np.float64)
    ids: defaultdict[bytes, int] = defaultdict(count().__next__)  # a new token takes the next id
    token_ids, offsets = array("q"), np.zeros(len(day) + 1, dtype=np.int64)
    for lo in range(0, len(day), _CHUNK):
        bodies = [rec.body.lower() for rec in comments[lo : lo + _CHUNK]]
        text = " ".join(bodies).encode("ascii", "replace").translate(_WORD_BYTES)
        # a body's tokens are those that start before its end and after the
        # previous body's end
        in_word = np.frombuffer(text, dtype=np.uint8) != ord(" ")
        starts = np.flatnonzero(np.diff(in_word, prepend=False))[::2]
        ends = np.cumsum(np.fromiter(map(len, bodies), np.int64, len(bodies)) + 1) - 1
        offsets[lo + 1 : lo + 1 + len(bodies)] = len(token_ids) + np.searchsorted(starts, ends)
        token_ids.extend(map(ids.__getitem__, text.split()))
    return CommentTable(calendar, day, score, offsets, np.frombuffer(token_ids, dtype=np.int64),
                        tuple(t.decode() for t in ids))


def build_vocabulary(comments: CommentTable, size: int = DEFAULT_VOCAB_SIZE) -> Vocabulary:
    """Top ``size`` tokens by frequency over every comment of the table,
    on the calendar or not, ties broken lexicographically."""
    if size < 1:
        raise ValueError(f"vocabulary size must be positive, got {size}")
    if not comments.tokens:
        raise ValueError("empty corpus, no tokens to build a vocabulary from")
    counts = np.bincount(comments.token_ids, minlength=len(comments.tokens)).tolist()
    ranked = sorted(zip(comments.tokens, counts), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary(tokens=tuple(t for t, _ in ranked[:size]))


def load_lexicon(path: str) -> SentimentLexicon:
    """Read a 3-column TSV: token, polarity, subjectivity. Each token is
    listed once and is a word ``tokenize`` can give, a run of [a-z0-9]."""
    entries: dict[str, tuple[float, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}: expected 3 tab-separated fields at line {lineno}")
            token, pol, subj = parts
            if not _TOKEN_RE.fullmatch(token):
                raise ValueError(f"{path}: {token!r} at line {lineno} is not one word of [a-z0-9]")
            if token in entries:
                raise ValueError(f"{path}: {token!r} at line {lineno} is listed twice")
            try:
                entries[token] = (float(pol), float(subj))
            except ValueError:
                raise ValueError(f"{path}: bad number at line {lineno}") from None
    if not entries:
        raise ValueError(f"{path}: empty lexicon")
    return SentimentLexicon(entries=entries)


def bundled_lexicon() -> SentimentLexicon:
    """The small demonstration lexicon shipped with the package."""
    ref = resources.files("coinseer").joinpath("data/lexicon.tsv")
    with resources.as_file(ref) as path:
        return load_lexicon(str(path))


#: The quantiles of ``quartiles`` and ``_day_quartiles``.
_QUARTILES = np.array([0.25, 0.5, 0.75])


def quartiles(values: Sequence[float] | np.ndarray) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation; empty input gives zeros.

    The one-sample definition that ``_day_quartiles`` computes for every
    day at once and must equal bit for bit."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return (0.0, 0.0, 0.0)
    q1, q2, q3 = np.quantile(arr, _QUARTILES)
    return (float(q1), float(q2), float(q3))


def _matrix(
    calendar: Sequence[date], columns: Sequence[str], values: np.ndarray
) -> SignalMatrix:
    return SignalMatrix(tuple(calendar), tuple(columns), values)


def github_all_signal(events: Sequence[EventRecord], calendar: Sequence[date]) -> SignalMatrix:
    """Daily counts for all eight event types: columns gh_all_<type>."""
    col = {name: j for j, name in enumerate(EVENT_TYPES)}
    rows = _day_rows([rec.created_utc for rec in events], calendar)
    cols = np.array([col[rec.event_type] for rec in events], dtype=np.int64)
    inside = rows >= 0
    width = len(EVENT_TYPES)
    counts = np.bincount(rows[inside] * width + cols[inside], minlength=len(calendar) * width)
    return _matrix(calendar, _GH_ALL_COLUMNS, counts.reshape(-1, width).astype(np.float64))


def github_popularity_signal(gh_all: SignalMatrix) -> SignalMatrix:
    """Daily Watch and Fork counts, columns gh_watch and gh_fork: the
    gh_all_watch and gh_all_fork columns of ``gh_all``, renamed."""
    values = np.stack([gh_all.column("gh_all_watch"), gh_all.column("gh_all_fork")], axis=1)
    return _matrix(gh_all.dates, _GH_POP_COLUMNS, values)


def reddit_volume_signal(comments: CommentTable) -> SignalMatrix:
    """Daily comment count: column r_vol."""
    inside = comments.day[comments.day >= 0]
    values = np.bincount(inside, minlength=len(comments.calendar)).astype(np.float64)
    return _matrix(comments.calendar, _R_VOL_COLUMNS, values.reshape(-1, 1))


def reddit_language_signal(comments: CommentTable, vocabulary: Vocabulary) -> SignalMatrix:
    """Daily relative frequency of each vocabulary token.

    Each row is the day's vocabulary-token counts divided by the day's
    total in-vocabulary count, so nonzero rows sum to one; days without
    any in-vocabulary token are all zero. Columns are r_lang_<token> in
    vocabulary order.
    """
    column = np.array([vocabulary.index.get(t, -1) for t in comments.tokens], dtype=np.int64)
    cols = column[comments.token_ids]
    rows = np.repeat(comments.day, np.diff(comments.offsets))
    keep = (rows >= 0) & (cols >= 0)
    width = len(vocabulary)
    counts = np.bincount(rows[keep] * width + cols[keep], minlength=len(comments.calendar) * width)
    counts = counts.reshape(-1, width)
    # whole-number counts and totals are exact as float64, so the quotients
    # are those of float counts
    totals = counts.sum(axis=1, keepdims=True)
    values = np.divide(counts, totals, out=np.zeros(counts.shape), where=totals > 0)
    return _matrix(comments.calendar, _language_columns(vocabulary), values)


def _day_quartiles(comments: CommentTable, values: np.ndarray) -> np.ndarray:
    """Each calendar day's quartiles of ``values``, one value per comment:
    ``quartiles`` of the day's values, bit for bit, zeros on a day without
    comments. One sort groups the values by day in order; each quartile is
    then numpy's "linear" quantile, the same virtual index and the same
    interpolation (numpy's ``_lerp``) as ``np.quantile``, for every day at
    once."""
    inside = comments.day >= 0
    rows, values = comments.day[inside], values[inside]
    ordered = values[np.lexsort((values, rows))]
    counts = np.bincount(rows, minlength=len(comments.calendar))
    out = np.zeros((len(counts), 3))
    busy = counts > 0
    first, last = (np.cumsum(counts) - counts)[busy, None], counts[busy, None] - 1
    virtual = last * _QUARTILES  # positions within each day's sorted values
    below = np.floor(virtual)
    t = virtual - below
    lower = first + below.astype(np.intp)
    a, b = ordered[lower], ordered[np.minimum(lower + 1, first + last)]
    d = b - a
    out[busy] = np.where(t >= 0.5, b - d * (1 - t), a + d * t)
    return out


def reddit_score_signal(comments: CommentTable) -> SignalMatrix:
    """Daily quartiles of comment scores: columns r_score_q1..q3."""
    return _matrix(comments.calendar, _R_SCORE_COLUMNS, _day_quartiles(comments, comments.score))


def _comment_sentiment(comments: CommentTable, lexicon: SentimentLexicon) -> np.ndarray:
    """Each comment's (polarity, subjectivity) as a (2, comments) array:
    numpy's sum of its lexicon values in token order, divided by their
    count; 0 with no lexicon token or off the calendar. Comments with the
    same count of lexicon tokens are summed as the rows of one matrix,
    which numpy sums row by row as it sums each row alone."""
    lexicon_row = {t: i for i, t in enumerate(lexicon.entries)}
    # polarity and subjectivity, each indexed by lexicon row
    lexicon_values = np.array(list(lexicon.entries.values()), dtype=np.float64).reshape(-1, 2).T
    id_row = np.array([lexicon_row.get(t, -1) for t in comments.tokens], dtype=np.int64)
    hit_rows = id_row[comments.token_ids]  # of each token, -1 outside the lexicon
    owner = np.repeat(np.arange(len(comments)), np.diff(comments.offsets))
    hit = (hit_rows >= 0) & (comments.day[owner] >= 0)
    hits = np.bincount(owner[hit], minlength=len(comments))
    hit_rows, first_hit = hit_rows[hit], np.cumsum(hits) - hits
    sentiment = np.zeros((2, len(comments)))
    # each count of hits that some comment has; np.unique would import
    # numpy.ma, 2.5 MB more RSS in every worker forked after this
    for m in (np.flatnonzero(np.bincount(hits)[1:]) + 1).tolist():
        rows = np.flatnonzero(hits == m)
        # (comments, m) lexicon rows, reduced one value at a time: numpy sums
        # each row of a C-ordered matrix as it sums that row alone, but not
        # each row of the stacked (2, comments, m) array
        lexicon_hits = hit_rows[first_hit[rows, None] + np.arange(m)]
        for out, values in zip(sentiment, lexicon_values):
            out[rows] = np.add.reduce(values[lexicon_hits], axis=1) / m
    return sentiment


def reddit_sentiment_signal(comments: CommentTable, lexicon: SentimentLexicon) -> SignalMatrix:
    """Daily quartiles of per-comment polarity and subjectivity, scored here
    by ``_comment_sentiment``: columns r_pol_q1..q3, r_subj_q1..q3."""
    values = np.hstack([_day_quartiles(comments, v) for v in _comment_sentiment(comments, lexicon)])
    return _matrix(comments.calendar, _R_SENT_COLUMNS, values)


@dataclass(frozen=True)
class Family:
    """A signal family: name, display label, the archive it reads
    ("reddit" or "github"), column names given the language vocabulary,
    and extractor, which reads the sources that extract_families passes
    it."""

    name: str
    label: str
    archive: str
    columns: Callable[[Vocabulary | None], tuple[str, ...]]
    extract: Callable[[SimpleNamespace], SignalMatrix]


def _language_columns(vocabulary: Vocabulary | None) -> tuple[str, ...]:
    return () if vocabulary is None else tuple(_LANG_PREFIX + t for t in vocabulary.tokens)


#: Every signal family, keyed by name, in canonical order.
FAMILIES: Mapping[str, Family] = {
    f.name: f
    for f in (
        Family("gh_pop", "GH_Pop", "github", lambda v: _GH_POP_COLUMNS,
               lambda s: github_popularity_signal(s.gh_all())),
        Family("gh_all", "GH_All", "github", lambda v: _GH_ALL_COLUMNS, lambda s: s.gh_all()),
        Family("r_vol", "R_Vol", "reddit", lambda v: _R_VOL_COLUMNS,
               lambda s: reddit_volume_signal(s.comments())),
        Family("r_lang", "R_Lang", "reddit", _language_columns,
               lambda s: reddit_language_signal(s.comments(), s.vocabulary())),
        Family("r_score", "R_Score", "reddit", lambda v: _R_SCORE_COLUMNS,
               lambda s: reddit_score_signal(s.comments())),
        Family("r_sent", "R_Sent", "reddit", lambda v: _R_SENT_COLUMNS,
               lambda s: reddit_sentiment_signal(s.comments(), s.lexicon)),
    )
}


def parse_families(names: Iterable[str]) -> tuple[str, ...]:
    """``names`` without repeats, in canonical order."""
    names = list(names)
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown signal families: {', '.join(unknown)}")
    return tuple(f for f in FAMILIES if f in names)


def family_powerset(names: Iterable[str]) -> list[tuple[str, ...]]:
    """Every subset of the families ``names``, in bitmask order over
    their canonical order (the empty set first)."""
    ordered = parse_families(names)
    return [
        tuple(f for i, f in enumerate(ordered) if mask >> i & 1)
        for mask in range(1 << len(ordered))
    ]


def extract_families(
    names: Iterable[str],
    calendar: Sequence[date],
    comments: Sequence[CommentRecord],
    events: Sequence[EventRecord],
    lexicon: SentimentLexicon,
    vocab_size: int = DEFAULT_VOCAB_SIZE,
    vocabulary: Vocabulary | None = None,
) -> dict[str, SignalMatrix]:
    """The named families on ``calendar``, in canonical order, each source
    built the first time a family reads it. r_lang reads ``vocabulary``,
    else the corpus's top ``vocab_size`` tokens; with neither (no comment
    has a token) it is left out. Only r_sent reads ``lexicon``."""
    table = cache(lambda: comment_table(comments, calendar))
    sources = SimpleNamespace(
        comments=table,
        vocabulary=cache(lambda: vocabulary or build_vocabulary(table(), vocab_size)),
        lexicon=lexicon,
        # gh_pop is a slice of gh_all, so both read the events once
        gh_all=cache(lambda: github_all_signal(events, calendar)),
    )
    return {f: FAMILIES[f].extract(sources) for f in parse_families(names)
            if f != "r_lang" or vocabulary or table().tokens}


def families_of_columns(columns: Sequence[str]) -> tuple[tuple[str, ...], Vocabulary | None]:
    """The families, in canonical order, and the language vocabulary that
    the columns of a feature matrix name."""
    tokens = tuple(c[len(_LANG_PREFIX) :] for c in columns if c.startswith(_LANG_PREFIX))
    vocabulary = Vocabulary(tokens) if tokens else None
    owner = {c: f.name for f in FAMILIES.values() for c in f.columns(vocabulary)}
    for column in columns:
        if column != PRICE_COLUMN and column not in owner:
            raise ValueError(f"cannot rebuild signal column {column!r}")
    return parse_families({owner[c] for c in columns if c in owner}), vocabulary


def price_high_signal(price: PriceSeries) -> SignalMatrix:
    """The daily price high as a one-column matrix (column price_high)."""
    return _matrix(price.dates, (PRICE_COLUMN,), price.high.reshape(-1, 1).copy())


def concat_signals(parts: Sequence[SignalMatrix]) -> SignalMatrix:
    """Column-wise concatenation of matrices sharing one calendar."""
    if not parts:
        raise ValueError("nothing to concatenate")
    first = parts[0]
    for part in parts[1:]:
        if part.dates != first.dates:
            raise ValueError("calendar mismatch between signal matrices")
    columns: list[str] = []
    for part in parts:
        columns.extend(part.columns)
    values = np.hstack([part.values for part in parts])
    return _matrix(first.dates, columns, values)


def write_signal_csv(path: str, matrix: SignalMatrix) -> None:
    """Write a SignalMatrix as CSV (date column first, full precision)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("date",) + matrix.columns)
        for i, day in enumerate(matrix.dates):
            writer.writerow([day.isoformat()] + [repr(float(v)) for v in matrix.values[i]])
