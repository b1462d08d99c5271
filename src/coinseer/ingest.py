"""Loaders for local price and social-activity archives.

All loaders bucket time by UTC calendar day, validate eagerly, and return
plain immutable records sorted into a total order so that downstream results
do not depend on the physical order of the input files.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
import sys
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)

PRICE_HEADER = ("date", "open", "high", "low", "close")

#: Canonical GitHub event types, in fixed column order.
EVENT_TYPES = (
    "Watch",
    "Fork",
    "Issues",
    "IssueComment",
    "Push",
    "CommitComment",
    "PullRequest",
    "PullRequestReviewComment",
)

_EVENT_BY_RAW = {name + "Event": name for name in EVENT_TYPES}

#: A date alone before a sign, whose offset Python 3.11's fromisoformat
#: would read as a time of day: 2015-01-01+05:30, 20150101-08, 2015-W01-4+05.
_DATE_BEFORE_OFFSET = re.compile(r"\d{4}(?:-\d\d-\d\d|\d{4}|-W\d\d(?:-\d)?|W\d\d\d?)(?=[+-])", re.ASCII)

#: Share of undecodable lines tolerated before an archive is rejected.
MAX_SKIP_RATE = 0.01

#: The latest instant a record may carry: 9999-12-31T23:59:59Z, the last
#: that a GitHub created_at can spell.
MAX_EPOCH = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())

#: ``(value, end)`` of the JSON value at the start of a string: the decoder
#: behind json.loads, called without json.loads's wrapper layers.
_decode = json.JSONDecoder().raw_decode


class IngestError(ValueError):
    """Raised when an input archive is malformed beyond tolerance."""


class CommentRecord(NamedTuple):
    created_utc: int
    subreddit: str
    body: str
    score: int


class EventRecord(NamedTuple):
    created_utc: int
    repo: str
    event_type: str


@dataclass(frozen=True)
class PriceSeries:
    """Daily OHLC prices for one coin, strictly ordered by date."""

    coin: str
    dates: tuple[date, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.dates)
        for name in ("open", "high", "low", "close"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
            arr.flags.writeable = False
        if not self.dates:
            raise ValueError("empty price series")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ValueError(f"dates not strictly increasing at {cur}")
        if np.any(self.low <= 0):
            raise ValueError("non-positive low price")
        for name in ("open", "close"):
            arr = getattr(self, name)
            if np.any(arr < self.low) or np.any(arr > self.high):
                raise ValueError(f"{name} outside [low, high]")

    def __len__(self) -> int:
        return len(self.dates)


def daily_calendar(start: date, end: date) -> tuple[date, ...]:
    """Consecutive days from start through end inclusive."""
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    return tuple(start + timedelta(days=i) for i in range((end - start).days + 1))


def load_price_series(path: str, coin: str) -> PriceSeries:
    """Read a daily OHLC CSV (header: date,open,high,low,close).

    Rows may arrive in any order; the result is sorted by date. Duplicate
    dates, malformed rows (a byte that is not UTF-8 makes its row
    malformed), and price rows holding a non-finite value or violating
    low <= open,close <= high or low <= 0 are reported with their line
    number.
    """
    rows: dict[date, tuple[float, float, float, float]] = {}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        if tuple(h.strip().lower() for h in header) != PRICE_HEADER:
            raise IngestError(f"{path}: expected header {','.join(PRICE_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise IngestError(f"{path}: malformed row at line {lineno}")
            try:
                day = date.fromisoformat(row[0].strip())
                o, h, l, c = (float(v) for v in row[1:])
            except ValueError:
                raise IngestError(f"{path}: malformed row at line {lineno}") from None
            if day in rows:
                raise IngestError(f"{path}: duplicate date {day} at line {lineno}")
            if not all(math.isfinite(v) for v in (o, h, l, c)):
                raise IngestError(f"{path}: non-finite price at line {lineno}")
            if l <= 0:
                raise IngestError(f"{path}: non-positive price at line {lineno}")
            if h < l:
                raise IngestError(f"{path}: high below low at line {lineno}")
            for name, v in (("open", o), ("close", c)):
                if v < l:
                    raise IngestError(f"{path}: {name} below low at line {lineno}")
                if v > h:
                    raise IngestError(f"{path}: {name} exceeds high at line {lineno}")
            rows[day] = (o, h, l, c)
    if not rows:
        raise IngestError(f"{path}: no data rows")
    days = tuple(sorted(rows))
    cols = np.array([rows[d] for d in days], dtype=np.float64)
    return PriceSeries(
        coin=coin,
        dates=days,
        open=cols[:, 0].copy(),
        high=cols[:, 1].copy(),
        low=cols[:, 2].copy(),
        close=cols[:, 3].copy(),
    )


def save_price_series(path: str, series: PriceSeries) -> None:
    """Write a PriceSeries back to CSV, full float precision."""
    write_csv(path, PRICE_HEADER,
              zip(series.dates, series.open, series.high, series.low, series.close))


def _checked_epoch(ts: int) -> int:
    """``ts``, if it lies after the epoch and no later than MAX_EPOCH."""
    if ts <= 0:
        raise ValueError("non-positive timestamp")
    if ts > MAX_EPOCH:
        raise ValueError("timestamp after 9999-12-31")
    return ts


def _parse_epoch(value: object) -> int:
    """Epoch seconds from an int, float, or decimal string; an infinite
    value raises OverflowError."""
    if isinstance(value, bool):
        raise ValueError("boolean timestamp")
    if isinstance(value, (int, float)):
        return _checked_epoch(int(value))
    if isinstance(value, str):
        return _checked_epoch(int(float(value)))
    raise ValueError(f"bad timestamp type {type(value).__name__}")


def _parse_score(value: object) -> int:
    """A whole-number score from an int, an integral float, or an integer
    string."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"score {value!r} is not a whole number")
    return int(value)


def _read_ndjson(
    path: str, name: str, what: str, parse: Callable[[dict], tuple | None]
) -> list:
    """The records ``parse`` makes of an NDJSON file's objects, sorted.

    Only a line that could name ``name`` (a subreddit or repo name) is
    decoded: one whose lowercased text contains the lowercased name, or
    that holds a JSON escape that could spell one of its characters
    (``\\u``, or ``\\/`` for a name with a slash; a config's subreddit and
    repo names hold no quote, backslash or control character, see
    cli.load_config).
    The filter saves time only on foreign lines that hold no ``\\u``;
    every other line costs one lowercasing and one substring search more
    than decoding alone. A decoded line must hold exactly one JSON value:
    it is read by one ``JSONDecoder.raw_decode`` call, and text left after
    the value (a second value included) makes the line unreadable, which
    on a stripped line is ``json.loads``'s verdict. ``parse`` gives None to
    drop a decoded object and raises ValueError, KeyError, TypeError or
    OverflowError for one it cannot read; its line is skipped and counted.
    Every other line is foreign and is not decoded; it counts as skipped
    only if it is not shaped like an object (it does not start with ``{``
    and end with ``}``). A decoded line that is not valid UTF-8 is skipped
    and counted, so a compressed file fails the limit. Every non-blank line
    counts toward the total, and more than 1% skipped lines rejects the
    file.

    If no record is kept, a warning says so (``what`` is e.g. "comments
    matched subreddit") and, if any decoded line was skipped, how many
    lines that could name ``name`` could not be read; the file still
    loads."""
    want = name.lower()
    slash = "/" in want
    records = []
    skipped = total = unread = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            total += 1
            if want not in line.lower() and "\\u" not in line and not (slash and "\\/" in line):
                if line[0] != "{" or line[-1] != "}":
                    skipped += 1
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")  # UnicodeEncodeError on an undecodable byte
                obj, end = _decode(line)
                if end != len(line):
                    raise ValueError("text after the JSON value")
                record = parse(obj)
            except (ValueError, KeyError, TypeError, OverflowError):
                skipped += 1
                unread += 1
                continue
            if record is not None:
                records.append(record)
    log.debug("%s: %d lines read, %d records kept, %d lines skipped",
              path, total, len(records), skipped)
    if total and skipped / total > MAX_SKIP_RATE:
        raise IngestError(
            f"{path}: {skipped} of {total} lines unreadable "
            f"({100.0 * skipped / total:.1f}%, tolerance {100.0 * MAX_SKIP_RATE:.0f}%)"
        )
    if not records:
        why = f"; {unread} lines that could name {name!r} could not be read" if unread else ""
        log.warning("%s: no %s %r%s", path, what, name, why)
    records.sort()
    return records


def write_ndjson(path: str, objects: Iterable[dict]) -> None:
    """Write dicts as one JSON object per line (sorted keys, compact)."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable[object]]) -> None:
    """Write a header and rows as CSV. A float cell is written as the
    shortest text that reads back to the same float64; any other cell as
    str() gives it, so a date is written in ISO form."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def load_reddit_comments(path: str, subreddit: str) -> list[CommentRecord]:
    """Read an NDJSON comment dump, keeping one subreddit (case-insensitive).

    A line that cannot name the subreddit (see _read_ndjson) is not
    decoded, and counts as skipped only if it is not shaped like an object
    ({...}). A decoded line that is not valid JSON, lacks
    created_utc/subreddit/body/score, or holds a time outside 1970..9999
    or a score that is not a whole number or that float64 cannot hold is
    skipped and counted. More than 1% skipped lines rejects the file. The
    result is sorted by the full record tuple, so any shuffling of the
    input lines yields an identical list.
    """
    want = subreddit.lower()

    def parse(obj: dict) -> CommentRecord | None:
        created, sub, body, score = obj["created_utc"], obj["subreddit"], obj["body"], obj["score"]
        # an int (for the time, one in range) is kept as it is; the helpers read the rest
        if type(created) is not int or not 0 < created <= MAX_EPOCH:
            created = _parse_epoch(created)
        if type(score) is not int:
            score = _parse_score(score)
        if not isinstance(sub, str) or not isinstance(body, str):
            raise ValueError("bad field type")
        if abs(score) > sys.float_info.max:  # comment_table holds scores as float64
            raise ValueError("score out of float64 range")
        return CommentRecord(created, sub, body, score) if sub.lower() == want else None

    return _read_ndjson(path, subreddit, "comments matched subreddit", parse)


def save_reddit_comments(path: str, comments: Iterable[CommentRecord]) -> None:
    """Write comments as the NDJSON dump load_reddit_comments reads."""
    write_ndjson(path, (c._asdict() for c in comments))


def _parse_iso_instant(value: object) -> int:
    """Epoch seconds from an ISO-8601 instant such as 2015-01-01T15:04:05Z.

    Surrounding whitespace and a trailing lowercase z are accepted, and a
    time with no offset is read as UTC. A date with an offset and no
    time, such as 2015-01-01+05:30, is midnight at that offset."""
    if not isinstance(value, str):
        raise TypeError(f"bad timestamp type {type(value).__name__}")
    text = value.strip()
    if date_alone := _DATE_BEFORE_OFFSET.match(text):  # midnight at that offset
        text = f"{date_alone[0]}T00:00{text[date_alone.end():]}"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:  # a lowercase z, or a Z after a date alone
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return _checked_epoch(int(dt.timestamp()))


def load_github_events(path: str, repo: str) -> list[EventRecord]:
    """Read a GitHub Archive NDJSON dump, keeping one repository.

    Repository match is case-insensitive on the full owner/name, read from
    ``repo.name`` or, in an event with no ``repo`` (GitHub's Timeline API,
    which the archive holds before 2015), from ``repository.owner`` and
    ``repository.name``. Event types outside the eight canonical ones are
    dropped (and counted in the log) rather than treated as corruption.
    Which lines are decoded, which count as skipped toward the 1% limit,
    and the ordering follow load_reddit_comments, with the repository in
    place of the subreddit.
    """
    want = repo.lower()
    unknown = 0

    def parse(obj: dict) -> EventRecord | None:
        nonlocal unknown
        raw_type = obj["type"]
        created = _parse_iso_instant(obj["created_at"])
        if obj.get("repo") is None:
            timeline = obj["repository"]
            owner, short = timeline["owner"], timeline["name"]
            if not isinstance(owner, str) or not isinstance(short, str):
                raise ValueError("bad field type")
            name = f"{owner}/{short}"
        else:
            name = obj["repo"]["name"]
        if not isinstance(raw_type, str) or not isinstance(name, str):
            raise ValueError("bad field type")
        if name.lower() != want:
            return None
        event_type = _EVENT_BY_RAW.get(raw_type)
        if event_type is None:
            unknown += 1
            return None
        return EventRecord(created, name, event_type)

    records = _read_ndjson(path, repo, "events matched repo", parse)
    if unknown:
        log.info("%s: dropped %d events of unrecognized type", path, unknown)
    return records


def save_github_events(path: str, events: Iterable[EventRecord]) -> None:
    """Write events as the GitHub Archive NDJSON dump load_github_events reads."""
    write_ndjson(path, ({
        "type": e.event_type + "Event",
        "created_at": f"{datetime.fromtimestamp(e.created_utc, timezone.utc):%Y-%m-%dT%H:%M:%SZ}",
        "repo": {"name": e.repo},
    } for e in events))


def align_calendar(
    price: PriceSeries, start: date, end: date
) -> tuple[PriceSeries, int]:
    """Restrict a price series to [start, end] with forward-filled gaps.

    Returns the consecutive-day series and the number of filled days. The
    requested range must lie inside the available data and start on a day
    that actually has a row (a missing first day leaves nothing to carry
    forward).
    """
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    if start < price.dates[0] or end > price.dates[-1]:
        raise ValueError(
            f"requested range {start}..{end} extends beyond available "
            f"data {price.dates[0]}..{price.dates[-1]}"
        )
    by_day = {d: i for i, d in enumerate(price.dates)}
    if start not in by_day:
        raise ValueError(f"first requested day {start} missing, nothing to carry forward")
    days = daily_calendar(start, end)
    out = np.empty((len(days), 4), dtype=np.float64)
    fills = 0
    for row, day in enumerate(days):
        i = by_day.get(day)
        if i is None:
            out[row] = out[row - 1]
            fills += 1
        else:
            out[row] = (price.open[i], price.high[i], price.low[i], price.close[i])
    return (
        PriceSeries(
            coin=price.coin,
            dates=days,
            open=out[:, 0].copy(),
            high=out[:, 1].copy(),
            low=out[:, 2].copy(),
            close=out[:, 3].copy(),
        ),
        fills,
    )
