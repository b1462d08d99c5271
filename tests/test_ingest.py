"""Archive loaders: CSV prices, reddit NDJSON, GitHub Archive NDJSON."""

import csv
import gzip
import json
import re
from datetime import date, datetime, timezone

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from coinseer import ingest
from oracles import day_of


def write_lines(path, lines):
    """Write lines as UTF-8; a surrogate escape such as "\udcff" writes
    the raw byte it stands for (0xff), which is not UTF-8."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")


def price_csv(path, rows):
    write_lines(path, ["date,open,high,low,close"] + rows)


def epoch(day, hour=12):
    return int(datetime(day.year, day.month, day.day, hour, tzinfo=timezone.utc).timestamp())


def comment_line(day, sub="CryptoCurrency", body="to the moon", score=3, hour=12):
    return json.dumps(
        {"created_utc": epoch(day, hour), "subreddit": sub, "body": body, "score": score}
    )


def event_line(day, repo="bitcoin/bitcoin", kind="WatchEvent", hour=12):
    stamp = datetime(day.year, day.month, day.day, hour, tzinfo=timezone.utc)
    return json.dumps(
        {
            "type": kind,
            "created_at": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "repo": {"name": repo},
        }
    )


def test_price_round_trip_and_sorting(tmp_path):
    src = tmp_path / "p.csv"
    price_csv(
        src,
        [
            "2021-01-03,11.5,12.0,11.0,11.8",
            "2021-01-01,10.0,10.5,9.5,10.2",
            "2021-01-02,10.2,11.9,10.1,11.5",
        ],
    )
    series = ingest.load_price_series(str(src), "btc")
    assert series.coin == "btc"
    assert series.dates == (date(2021, 1, 1), date(2021, 1, 2), date(2021, 1, 3))
    npt.assert_allclose(series.high, [10.5, 11.9, 12.0])

    out = tmp_path / "q.csv"
    ingest.save_price_series(str(out), series)
    again = ingest.load_price_series(str(out), "btc")
    assert again.dates == series.dates
    npt.assert_array_equal(again.open, series.open)
    npt.assert_array_equal(again.close, series.close)


def test_price_series_arrays_are_frozen(tmp_path):
    src = tmp_path / "p.csv"
    price_csv(src, ["2021-01-01,10.0,10.5,9.5,10.2"])
    series = ingest.load_price_series(str(src), "btc")
    with pytest.raises(ValueError):
        series.high[0] = 99.0


def test_price_loader_rejects_bad_rows(tmp_path):
    cases = [
        ("2021-01-01,10,10.5,9.5", "malformed row at line 2"),
        ("not-a-date,10,10.5,9.5,10.2", "malformed row at line 2"),
        ("2021-01-01,10,abc,9.5,10.2", "malformed row at line 2"),
        ("2021-01-01,10,10.5,-1,10.2", "non-positive price at line 2"),
        ("2021-01-01,10,10.5,0,10.2", "non-positive price at line 2"),
        ("2021-01-01,20,10.5,9.5,10.2", "open exceeds high at line 2"),
        ("2021-01-01,10,10.5,9.5,1.2", "close below low at line 2"),
        ("2021-01-01,10,9.0,9.5,9.6", "high below low at line 2"),
        ("2021-01-01,nan,nan,nan,nan", "non-finite price at line 2"),
        ("2021-01-01,10,inf,9.5,10.2", "non-finite price at line 2"),
        ("2021-01-01,10,1e999,9.5,10.2", "non-finite price at line 2"),
        ("2021-01-01,10\udcff,10.5,9.5,10.2", "malformed row at line 2"),
    ]
    for row, message in cases:
        src = tmp_path / "bad.csv"
        price_csv(src, [row])
        with pytest.raises(ingest.IngestError, match=message):
            ingest.load_price_series(str(src), "btc")


def test_compressed_inputs_fail_with_the_file_named(tmp_path):
    day = date(2021, 1, 1)
    price = tmp_path / "price.csv"
    price_csv(price, ["2021-01-01,10,10.5,9.5,10.2"])
    packed = tmp_path / "price.csv.gz"
    packed.write_bytes(gzip.compress(price.read_bytes()))
    with pytest.raises(ingest.IngestError, match=f"^{packed}: expected header"):
        ingest.load_price_series(str(packed), "btc")
    for github, make in ((False, comment_line), (True, event_line)):
        plain = tmp_path / "plain.ndjson"
        write_lines(plain, [make(day, hour=h % 24) for h in range(500)])
        packed = tmp_path / f"{github}.ndjson.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        with pytest.raises(ingest.IngestError, match=f"^{packed}: .* lines unreadable"):
            load(github, packed)


def test_price_loader_rejects_duplicates_and_bad_header(tmp_path):
    src = tmp_path / "dup.csv"
    price_csv(src, ["2021-01-01,10,10.5,9.5,10.2", "2021-01-01,10,10.5,9.5,10.2"])
    with pytest.raises(ingest.IngestError, match="duplicate date .* at line 3"):
        ingest.load_price_series(str(src), "btc")

    src2 = tmp_path / "head.csv"
    write_lines(src2, ["day,open,high,low,close", "2021-01-01,10,10.5,9.5,10.2"])
    with pytest.raises(ingest.IngestError, match="expected header"):
        ingest.load_price_series(str(src2), "btc")

    src3 = tmp_path / "empty.csv"
    src3.write_text("")
    with pytest.raises(ingest.IngestError, match="empty file"):
        ingest.load_price_series(str(src3), "btc")


def test_day_of_and_daily_calendar():
    assert day_of(epoch(date(2017, 6, 1), hour=23)) == date(2017, 6, 1)
    cal = ingest.daily_calendar(date(2020, 12, 30), date(2021, 1, 2))
    assert cal == (
        date(2020, 12, 30),
        date(2020, 12, 31),
        date(2021, 1, 1),
        date(2021, 1, 2),
    )
    with pytest.raises(ValueError):
        ingest.daily_calendar(date(2021, 1, 2), date(2021, 1, 1))


def test_reddit_loader_filters_and_sorts(tmp_path):
    src = tmp_path / "r.ndjson"
    lines = [
        comment_line(date(2021, 1, 2), sub="cryptocurrency", body="b", hour=9),
        comment_line(date(2021, 1, 1), sub="CryptoCurrency", body="a"),
        comment_line(date(2021, 1, 1), sub="aww", body="cat"),
    ]
    write_lines(src, lines)
    records = ingest.load_reddit_comments(str(src), "CRYPTOCURRENCY")
    assert [r.body for r in records] == ["a", "b"]
    assert records[0].created_utc < records[1].created_utc

    shuffled = tmp_path / "r2.ndjson"
    write_lines(shuffled, [lines[2], lines[0], lines[1]])
    assert ingest.load_reddit_comments(str(shuffled), "cryptocurrency") == records


def test_reddit_loader_skip_tolerance(tmp_path):
    good = [comment_line(date(2021, 1, 1), hour=h % 24) for h in range(199)]
    src = tmp_path / "ok.ndjson"
    write_lines(src, good + ["{broken"])
    records = ingest.load_reddit_comments(str(src), "cryptocurrency")
    assert len(records) == 199

    src2 = tmp_path / "bad.ndjson"
    write_lines(src2, good[:50] + ["{broken"])
    with pytest.raises(ingest.IngestError, match="unreadable"):
        ingest.load_reddit_comments(str(src2), "cryptocurrency")


def test_reddit_loader_skips_field_problems(tmp_path):
    src = tmp_path / "r.ndjson"
    rows = [comment_line(date(2021, 1, 1))] * 398
    rows.append(json.dumps({"created_utc": -5, "subreddit": "CryptoCurrency", "body": "x", "score": 1}))
    rows.append(json.dumps({"subreddit": "CryptoCurrency", "body": "x", "score": 1}))
    write_lines(src, rows)
    records = ingest.load_reddit_comments(str(src), "cryptocurrency")
    assert len(records) == 398


def test_github_loader_filters_types_and_repo(tmp_path):
    src = tmp_path / "g.ndjson"
    lines = [
        event_line(date(2021, 1, 1), kind="WatchEvent"),
        event_line(date(2021, 1, 1), kind="ForkEvent", hour=13),
        event_line(date(2021, 1, 1), kind="GollumEvent", hour=14),
        event_line(date(2021, 1, 1), repo="Bitcoin/Bitcoin", kind="PushEvent", hour=15),
        event_line(date(2021, 1, 1), repo="other/repo", kind="WatchEvent", hour=16),
    ]
    write_lines(src, lines)
    records = ingest.load_github_events(str(src), "bitcoin/bitcoin")
    assert [r.event_type for r in records] == ["Watch", "Fork", "Push"]

    shuffled = tmp_path / "g2.ndjson"
    write_lines(shuffled, list(reversed(lines)))
    assert ingest.load_github_events(str(shuffled), "BITCOIN/BITCOIN") == records


def test_github_loader_accepts_offset_timestamps(tmp_path):
    src = tmp_path / "g.ndjson"
    write_lines(
        src,
        [
            json.dumps(
                {
                    "type": "WatchEvent",
                    "created_at": "2021-01-01T12:00:00+02:00",
                    "repo": {"name": "a/b"},
                }
            )
        ],
    )
    (record,) = ingest.load_github_events(str(src), "a/b")
    assert day_of(record.created_utc) == date(2021, 1, 1)


def timeline_event_line(owner, name, kind, created_at):
    """A GitHub Archive event from before 2015, in the shape of GitHub's
    Timeline API: a ``repository`` object where later events have
    ``repo``, the actor as a login string, and a local-time created_at."""
    return json.dumps({
        "created_at": created_at,
        "payload": {},
        "public": True,
        "type": kind,
        "url": f"https://github.com/{owner}/{name}",
        "actor": "satoshi",
        "actor_attributes": {"login": "satoshi", "type": "User"},
        "repository": {
            "id": 1181927, "name": name, "owner": owner, "private": False, "fork": False,
            "url": f"https://github.com/{owner}/{name}", "language": "C++",
            "created_at": "2010-12-19T07:35:29-08:00",
        },
    })


def test_github_loader_reads_timeline_events_from_before_2015(tmp_path, caplog):
    # 20 events on the last day of the Timeline format, in Pacific time,
    # then 20 in the Events format, and one Timeline event of another
    # repository whose URL holds the wanted name, so it is decoded. One
    # counted line in 41 would exceed the 1% limit.
    timeline = [
        timeline_event_line("bitcoin", "bitcoin", "WatchEvent", f"2014-12-31T{h:02d}:30:00-08:00")
        for h in range(20)
    ]
    events = [event_line(date(2015, 1, 2), kind="ForkEvent", hour=h) for h in range(20)]
    foreign = timeline_event_line("bitcoin", "bitcoin.org", "PushEvent", "2014-12-31T10:00:00-08:00")
    src = tmp_path / "g.ndjson"
    write_lines(src, timeline + [foreign] + events)
    with caplog.at_level("WARNING", logger="coinseer.ingest"):
        records = ingest.load_github_events(str(src), "bitcoin/bitcoin")
    assert caplog.messages == []
    assert len(records) == 40
    assert {r.repo for r in records} == {"bitcoin/bitcoin"}
    assert [r.event_type for r in records] == ["Watch"] * 20 + ["Fork"] * 20
    # 00:30 Pacific time is 08:30 UTC
    assert records[0].created_utc == int(datetime(2014, 12, 31, 8, 30, tzinfo=timezone.utc).timestamp())
    assert [day_of(r.created_utc) for r in records[:20]] == [date(2014, 12, 31)] * 16 + [
        date(2015, 1, 1)
    ] * 4


def events_api_line(kind, name, created_at, payload, ensure_ascii=True, **extra):
    """A GitHub Archive event from 2015 on, in the shape of GitHub's Events
    API: an ``id``, an ``actor`` object, ``repo`` with ``id``, ``name``
    and ``url``, a nested ``payload``, ``public`` and ``org``."""
    owner = name.split("/")[0]
    obj = {
        "id": "2489651045", "type": kind,
        "actor": {"id": 665991, "login": "satoshi", "gravatar_id": "",
                  "url": "https://api.github.com/users/satoshi",
                  "avatar_url": "https://avatars.githubusercontent.com/u/665991?"},
        "repo": {"id": 1181927, "name": name, "url": f"https://api.github.com/repos/{name}"},
        "payload": payload, "public": True, "created_at": created_at,
        "org": {"id": 528860, "login": owner, "gravatar_id": "",
                "url": f"https://api.github.com/orgs/{owner}",
                "avatar_url": "https://avatars.githubusercontent.com/u/528860?"},
    }
    return json.dumps({**obj, **extra}, ensure_ascii=ensure_ascii)


def test_github_loader_reads_events_api_lines(tmp_path, caplog):
    push = {"push_id": 536863970, "size": 2, "ref": "refs/heads/master", "commits": [
        {"sha": "8c3a1f", "message": "Fix the café locale", "distinct": True},
        {"sha": "d41d8c", "message": "Move src/init.cpp", "distinct": True},
    ]}
    push_line = events_api_line("PushEvent", "bitcoin/bitcoin", "2015-01-01T17:00:00Z", push,
                                ensure_ascii=False).replace("src/init", "src\\/init")
    assert "é" in push_line and "src\\/init" in push_line
    kept = [
        events_api_line("WatchEvent", "bitcoin/bitcoin", "2015-01-01T15:00:00Z",
                        {"action": "started"}),
        events_api_line("ForkEvent", "bitcoin/bitcoin", "2015-01-01T16:00:00Z", {"forkee": {
            "id": 28688495, "name": "bitcoin", "full_name": "satoshi/bitcoin",
            "owner": {"login": "satoshi"}, "fork": True, "public": True}}),
        push_line,
    ]
    dropped = [
        # decoded, since its payload names bitcoin/bitcoin, and dropped
        events_api_line("PullRequestEvent", "satoshi/bitcoin", "2015-01-01T18:00:00Z", {
            "action": "opened", "number": 1,
            "pull_request": {"title": "Merge bitcoin/bitcoin master"}}),
        # the wanted repo, of a type outside the eight: dropped and logged
        events_api_line("ReleaseEvent", "bitcoin/bitcoin", "2015-01-01T19:00:00Z",
                        {"action": "published", "release": {"tag_name": "v0.10.0"}}),
        # a null repo and no repository, in a line that names the wanted
        # repo (its url): decoded, then skipped and counted
        events_api_line("PushEvent", "bitcoin/bitcoin", "2015-01-01T20:00:00Z", push, repo=None,
                        url="https://github.com/bitcoin/bitcoin/compare/8c3a1f...d41d8c"),
    ]
    foreign = [events_api_line("WatchEvent", "torvalds/linux", "2015-01-01T12:00:00Z",
                               {"action": "started"}) for _ in range(100)]
    src = tmp_path / "2015-01-01-15.json"
    write_lines(src, kept + dropped + foreign)
    with caplog.at_level("DEBUG", logger="coinseer.ingest"):
        records = ingest.load_github_events(str(src), "bitcoin/bitcoin")
    assert caplog.messages == [f"{src}: 106 lines read, 3 records kept, 1 lines skipped",
                               f"{src}: dropped 1 events of unrecognized type"]
    hour = int(datetime(2015, 1, 1, tzinfo=timezone.utc).timestamp()) // 3600
    assert records == [ingest.EventRecord(3600 * (hour + h), "bitcoin/bitcoin", kind)
                       for h, kind in ((15, "Watch"), (16, "Fork"), (17, "Push"))]

    caplog.clear()
    write_lines(src, dropped + foreign)
    with caplog.at_level("WARNING", logger="coinseer.ingest"):
        assert ingest.load_github_events(str(src), "bitcoin/bitcoin") == []
    assert caplog.messages == [
        f"{src}: no events matched repo 'bitcoin/bitcoin'; "
        "1 lines that could name 'bitcoin/bitcoin' could not be read"
    ]


def test_align_calendar_forward_fills(tmp_path):
    src = tmp_path / "p.csv"
    price_csv(
        src,
        [
            "2021-01-01,10.0,10.5,9.5,10.2",
            "2021-01-02,10.2,11.9,10.1,11.5",
            "2021-01-05,12.0,12.5,11.5,12.2",
        ],
    )
    series = ingest.load_price_series(str(src), "btc")
    aligned, fills = ingest.align_calendar(series, date(2021, 1, 1), date(2021, 1, 5))
    assert fills == 2
    assert len(aligned) == 5
    npt.assert_allclose(aligned.high, [10.5, 11.9, 11.9, 11.9, 12.5])
    npt.assert_allclose(aligned.close, [10.2, 11.5, 11.5, 11.5, 12.2])

    with pytest.raises(ValueError, match="beyond available"):
        ingest.align_calendar(series, date(2020, 12, 31), date(2021, 1, 5))
    with pytest.raises(ValueError, match="nothing to carry forward"):
        ingest.align_calendar(series, date(2021, 1, 3), date(2021, 1, 5))


def test_write_ndjson_round_trip(tmp_path):
    path = tmp_path / "o.ndjson"
    objects = [{"b": 2, "a": 1}, {"x": [1, 2]}]
    ingest.write_ndjson(str(path), objects)
    lines = path.read_text().splitlines()
    assert lines[0] == '{"a":1,"b":2}'
    assert [json.loads(line) for line in lines] == objects


def test_write_csv_floats_read_back_bitwise_and_other_cells_as_str(tmp_path):
    path = tmp_path / "t.csv"
    floats = [0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308,
              np.float64(0.1), np.float64(-0.0), np.float64(5e-324),
              np.float64(1.7976931348623157e308)]
    others = [7, date(2021, 1, 2), 'a,b "c"', "---", ""]
    ingest.write_csv(str(path), ("x", "y"), [floats, others])
    with open(path, newline="", encoding="utf-8") as fh:
        header, got_floats, got_others = csv.reader(fh)
    assert header == ["x", "y"]
    assert got_floats[:5] == ["0.1", "0.3333333333333333", "-0.0", "5e-324",
                              "1.7976931348623157e+308"]
    assert got_floats[5:] == [got_floats[i] for i in (0, 2, 3, 4)]
    read = np.array([float(cell) for cell in got_floats])
    assert read.tobytes() == np.array(floats, dtype=np.float64).tobytes()
    assert got_others == ["7", "2021-01-02", 'a,b "c"', "---", ""]
    assert path.read_bytes().startswith(b'x,y\r\n0.1,')


def load(github, path):
    if github:
        return ingest.load_github_events(str(path), "bitcoin/bitcoin")
    return ingest.load_reddit_comments(str(path), "cryptocurrency")


def both_names(created_utc, score="1", created_at='"junk"'):
    """An object naming both wanted names, with its times and score spelled
    as raw JSON; the default created_at makes it unreadable as an event."""
    return (f'{{"created_utc":{created_utc},"subreddit":"CryptoCurrency","body":"x",'
            f'"score":{score},"type":"WatchEvent","created_at":{created_at},'
            '"repo":{"name":"bitcoin/bitcoin"}}')


#: Unreadable lines that count toward the limit: the first two are not
#: shaped like objects, and the objects name both wanted names, so both
#: loaders decode them. Six hold a number out of range (an infinite or
#: post-9999 time, or a score that float64 cannot hold) or a created_at
#: that is not a string. Then come two scores that are not whole numbers,
#: and a line that both loaders would keep but for two bytes that are not
#: UTF-8.
BAD_LINES = (
    "{broken",
    "[1, 2]",
    json.dumps({"created_utc": -5, "subreddit": "CryptoCurrency", "body": "x", "score": 1,
                "type": "WatchEvent", "created_at": "junk", "repo": {"name": "bitcoin/bitcoin"}}),
    json.dumps({"body": "x", "subreddit": "CryptoCurrency", "repo": "bitcoin/bitcoin"}),
    both_names("Infinity"),
    both_names("1e999"),
    both_names("100000000000000000000"),
    both_names("1609459200", score="1" + "0" * 400),
    both_names('"x"', created_at='"9999-12-31T23:59:59-01:00"'),
    both_names('"x"', created_at="1609459200"),
    both_names("1609459200", score="true"),
    both_names("1609459200", score="2.9"),
    both_names("1609459200", created_at='"2021-01-01T12:00:00Z"').replace(
        '"body":"x"', '"body":"\udcff\udcfe"'
    ),
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    per_hundred=st.integers(1, 4),
    github=st.booleans(),
    bad=st.lists(st.sampled_from(BAD_LINES), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_skip_rate_boundary(tmp_path, per_hundred, github, bad, seed):
    """Exactly 1% unreadable lines load; one more bad line is rejected."""
    make = event_line if github else comment_line
    good = [make(date(2021, 1, 1), hour=h % 24) for h in range(99 * per_hundred)]
    rng = np.random.default_rng(seed)
    for extra, name in ((0, "ok.ndjson"), (1, "bad.ndjson")):
        lines = good + bad[: per_hundred + extra]
        src = tmp_path / name
        write_lines(src, [lines[i] for i in rng.permutation(len(lines))])
        if extra:
            with pytest.raises(ingest.IngestError, match="unreadable"):
                load(github, src)
        else:
            assert len(load(github, src)) == len(good)


def escaped(name):
    """``name`` spelled entirely with JSON \\u escapes."""
    return "".join(f"\\u{ord(ch):04x}" for ch in name)


def test_every_spelling_of_the_wanted_name_is_decoded(tmp_path, monkeypatch):
    day = date(2021, 1, 1)
    reddit = [
        comment_line(day, hour=1),
        comment_line(day, hour=2).replace('"CryptoCurrency"', f'"{escaped("CryptoCurrency")}"'),
        comment_line(day, hour=3).replace('"CryptoCurrency"', '"crypto\\u0043urrency"'),
        comment_line(day, sub="cRYPTOcURRENCY", hour=4),
        comment_line(day, sub="aww", hour=5),
        comment_line(day, sub="aww", body="a\\/b \\n", hour=6),
    ]
    github = [
        event_line(day, hour=1),
        event_line(day, hour=2).replace('"bitcoin/bitcoin"', '"bitcoin\\/bitcoin"'),
        event_line(day, hour=3).replace('"bitcoin/bitcoin"', f'"{escaped("bitcoin/bitcoin")}"'),
        event_line(day, repo="BitCoin/BITCOIN", hour=4),
        event_line(day, repo="torvalds/linux", hour=5),
        event_line(day, repo="bitcoin/bitcoin-core", hour=6),
    ]
    assert "cryptocurrency" not in reddit[1].lower() + reddit[2].lower()
    assert "bitcoin/bitcoin" not in github[1].lower() + github[2].lower()
    decoded = []
    decode = ingest._decode
    monkeypatch.setattr(ingest, "_decode", lambda text: decoded.append(text) or decode(text))
    # the foreign lines are never decoded, save the repo whose name holds the wanted one
    for github_file, lines, names, decodes in (
        (False, reddit, ["CryptoCurrency", "CryptoCurrency", "cryptoCurrency", "cRYPTOcURRENCY"],
         reddit[:4]),
        (True, github, ["bitcoin/bitcoin"] * 3 + ["BitCoin/BITCOIN"], github[:4] + github[5:]),
    ):
        rng = np.random.default_rng(0)
        for n in range(4):
            order = rng.permutation(len(lines)) if n else range(len(lines))
            src = tmp_path / f"{github_file}_{n}.ndjson"
            write_lines(src, [lines[i] for i in order])
            decoded.clear()
            records = load(github_file, src)
            assert [r[1] for r in records] == names
            assert [day_of(r.created_utc) for r in records] == [day] * 4
            assert sorted(decoded) == sorted(decodes)


@pytest.mark.parametrize("github", [False, True])
@pytest.mark.parametrize("name", ['a"b', "a\\b", "a\tb", "a\x00b"])
def test_loaders_reject_a_name_the_filter_cannot_match(tmp_path, github, name):
    # JSON writes these characters as escapes, which the pre-filter does not
    # look for; the file holds the name, and the loader raises before reading it
    src = tmp_path / "named.ndjson"
    day = date(2021, 1, 1)
    write_lines(src, [event_line(day, repo=name) if github else comment_line(day, sub=name)])
    kind, loader = ("repo", ingest.load_github_events) if github else (
        "subreddit", ingest.load_reddit_comments)
    with pytest.raises(ValueError, match=(
        f"^{kind} {re.escape(repr(name))} must not hold a quote, a backslash or a control character$"
    )):
        loader(str(src), name)
    with pytest.raises(ValueError, match="must not hold a quote"):
        loader(str(tmp_path / "missing.ndjson"), name)


@pytest.mark.parametrize("github", [False, True])
def test_only_foreign_lines_not_shaped_like_objects_count_as_skipped(tmp_path, caplog, github):
    make = event_line if github else comment_line
    good = [make(date(2021, 1, 1), hour=h % 24) for h in range(198)]
    foreign_objects = [
        "{}",
        '{"body": "no other field"}',
        '{broken, but braced}',
        comment_line(date(2021, 1, 1), sub="aww"),
        event_line(date(2021, 1, 1), repo="torvalds/linux"),
    ]
    foreign_other = ["not json at all", "[1, 2]"]
    src = tmp_path / "ok.ndjson"
    write_lines(src, foreign_objects + good + foreign_other)
    with caplog.at_level("DEBUG", logger="coinseer.ingest"):
        assert len(load(github, src)) == 198
    assert f"{src}: 205 lines read, 198 records kept, 2 lines skipped" in caplog.messages

    write_lines(src, foreign_objects + good + foreign_other + ['"a JSON string"'])
    with pytest.raises(ingest.IngestError,
                       match=r"3 of 206 lines unreadable \(1\.5%, tolerance 1%\)"):
        load(github, src)


@pytest.mark.parametrize("github", [False, True])
def test_a_file_of_non_json_lines_is_rejected(tmp_path, github):
    src = tmp_path / "junk.ndjson"
    write_lines(src, ["not json", "[1, 2", "12", "cryptocurrency bitcoin/bitcoin"] * 5)
    with pytest.raises(ingest.IngestError, match=r"20 of 20 lines unreadable \(100\.0%"):
        load(github, src)


@pytest.mark.parametrize("github", [False, True])
def test_lines_that_could_name_the_wanted_one_but_cannot_be_read_are_counted(
    tmp_path, caplog, github
):
    # An event names the wanted repository, so it is decoded, and then it
    # cannot be read, as its created_at is no time. On the Reddit side a
    # comment lacks its score.
    day = date(2014, 6, 1)
    if github:
        foreign = [event_line(day, repo=f"someone/project{i}", hour=i % 24) for i in range(995)]
        unread = [json.dumps({
            "type": "WatchEvent",
            "created_at": f"June 1st, {h} o'clock",
            "repo": {"name": "bitcoin/bitcoin"},
        }) for h in range(5)]
        want = "no events matched repo 'bitcoin/bitcoin'"
        name = "'bitcoin/bitcoin'"
    else:
        foreign = [comment_line(day, sub=f"sub{i}", hour=i % 24) for i in range(995)]
        unread = [json.dumps({"created_utc": epoch(day, h), "subreddit": "CryptoCurrency",
                              "body": "to the moon"}) for h in range(5)]
        want = "no comments matched subreddit 'cryptocurrency'"
        name = "'cryptocurrency'"
    src = tmp_path / "dump.ndjson"
    write_lines(src, foreign + unread)
    with caplog.at_level("WARNING", logger="coinseer.ingest"):
        assert load(github, src) == []
    assert caplog.messages == [f"{src}: {want}; 5 lines that could name {name} could not be read"]

    # with no such line the warning says only that nothing matched
    write_lines(src, foreign)
    caplog.clear()
    with caplog.at_level("WARNING", logger="coinseer.ingest"):
        assert load(github, src) == []
    assert caplog.messages == [f"{src}: {want}"]


def with_time(github, line, raw):
    """``line`` with its created_utc or created_at spelled as raw JSON."""
    key = "created_at" if github else "created_utc"
    obj = json.loads(line)
    return line.replace(f'"{key}": {json.dumps(obj[key])}', f'"{key}": {raw}')


def decode_cases(github):
    """Lines on which a JSON decoder's verdict is easy to get wrong, each
    naming the wanted subreddit or repo (or escaping a character)."""
    good = (event_line if github else comment_line)(date(2021, 1, 2), hour=7)
    name = "bitcoin/bitcoin" if github else "CryptoCurrency"
    return [
        "\ufeff" + good,
        good + " x",
        good + good,
        good + " " + good,
        good + "\x1c" + good,
        "[" + good + "]",
        "12",
        "12 " + good,
        f'"{name}"',
        "null",
        f'null "{name}"',
        with_time(github, good, "NaN"),
        with_time(github, good, "Infinity"),
        with_time(github, good, "-Infinity"),
        good[:-1] + ', "extra": NaN}',
        '{"x": Infinity, ' + good[1:],
        good[:-1] + ', "type": "ForkEvent", "subreddit": "aww"}',
        '{"type": "PushEvent", "subreddit": "aww", ' + good[1:],
        good.replace(f'"{name}"', '"' + escaped(name) + '"'),
        good[:-1] + ', "x": "\\u00e9t\\u00e9 \\ud800 \\udcff"}',
        good[:-1] + ', "x": "\\ud83d\\ude80"}',
        good[:-1] + ', "x": "\\u12"}',
        good[:-1] + ', "x": "\udcff"}',
        "\udcfe" + good,
        "\x1c" + good + "\x1c\x1d",
        "\x1c\x1e\x1f " + good,
        good + "\x1c x",
    ]


def outcome(github, path, caplog, monkeypatch, decode):
    """What loading ``path`` through ``decode`` gives: the records or the
    error, and every log line."""
    caplog.clear()
    with monkeypatch.context() as m, caplog.at_level("DEBUG", logger="coinseer.ingest"):
        m.setattr(ingest, "_decode", decode)
        try:
            got = load(github, path)
        except ingest.IngestError as exc:
            got = str(exc)
    return got, caplog.record_tuples


def assert_decoded_as_json_loads(github, path, lines, caplog, monkeypatch):
    write_lines(path, lines)
    expected = outcome(github, path, caplog, monkeypatch, oracles.loads_decode)
    assert outcome(github, path, caplog, monkeypatch, ingest._decode) == expected
    return expected


@pytest.mark.parametrize("github", [False, True])
def test_loaders_decode_each_line_as_json_loads_does(tmp_path, caplog, monkeypatch, github):
    make = event_line if github else comment_line
    good = [make(date(2021, 1, 1), hour=h % 24) for h in range(199)]
    foreign = [event_line(date(2021, 1, 1), repo="torvalds/linux", hour=h % 24) if github
               else comment_line(date(2021, 1, 1), sub="aww", hour=h % 24) for h in range(199)]
    kept = []
    for i, case in enumerate(decode_cases(github)):
        # among records, and alone, where a skipped line shows in the warning
        records, _ = assert_decoded_as_json_loads(
            github, tmp_path / "a.ndjson", good + [case], caplog, monkeypatch)
        if len(records) > len(good):
            kept.append(i)
        assert_decoded_as_json_loads(github, tmp_path / "b.ndjson", foreign + [case], caplog,
                                     monkeypatch)
    # kept: the extra NaN and Infinity keys, a duplicate key whose last value
    # is the wanted one (on GitHub also a tracked type after the first), the
    # escapes and the \x1c padding around one value
    assert kept == [14, 15] + [16] * github + [17, 18, 19, 20, 24, 25]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    github=st.booleans(),
    picks=st.lists(st.integers(0, 26), min_size=1, max_size=6),
    goods=st.integers(0, 250),
    foreigns=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_mix_of_hard_lines_decodes_as_json_loads_does(
    tmp_path, caplog, monkeypatch, github, picks, goods, foreigns, seed
):
    cases = decode_cases(github)
    make = event_line if github else comment_line
    lines = [cases[i] for i in picks]
    lines += [make(date(2021, 1, 1 + h % 28), hour=h % 24) for h in range(goods)]
    lines += [event_line(date(2021, 1, 1), repo="a/b") if github
              else comment_line(date(2021, 1, 1), sub="aww")] * foreigns
    rng = np.random.default_rng(seed)
    assert_decoded_as_json_loads(github, tmp_path / "mix.ndjson",
                                 [lines[i] for i in rng.permutation(len(lines))],
                                 caplog, monkeypatch)


#: Values of a comment's created_utc and score: ints in and out of range
#: and every other JSON type.
FIELD_VALUES = (0, 1, -1, 1609459200, ingest.MAX_EPOCH, ingest.MAX_EPOCH + 1, 10**30, -10**400,
                True, False, 1.0, 1609459200.0, 1609459200.7, -0.0, 1e300, "1609459200",
                "1609459200.5", " 7 ", "x", "", None, [], {}, [1609459200])


@pytest.mark.parametrize("field", ["created_utc", "score"])
def test_comment_times_and_scores_give_the_helpers_verdict(tmp_path, caplog, field):
    """An int is read on a fast path: each value gives the record that
    _parse_epoch and _parse_score make of it, or an unreadable line where
    they raise (or where the score is beyond float64)."""
    good = [comment_line(date(2021, 1, 1), hour=h % 24) for h in range(199)]
    helper = ingest._parse_epoch if field == "created_utc" else ingest._parse_score
    src = tmp_path / "r.ndjson"
    for value in FIELD_VALUES:
        write_lines(src, good + [comment_line(date(2021, 1, 1), body="the case")
                                 .replace(f'"{field}": ', f'"{field}": {json.dumps(value)}, "_": ')])
        try:
            want = [helper(value)]
            float(want[0])
        except (ValueError, TypeError, OverflowError):
            want = []
        caplog.clear()
        with caplog.at_level("DEBUG", logger="coinseer.ingest"):
            records = ingest.load_reddit_comments(str(src), "cryptocurrency")
        got = [getattr(r, field) for r in records if r.body == "the case"]
        assert got == want, value
        assert all(type(v) is int for v in got)
        counts = f"{199 + len(want)} records kept, {1 - len(want)} lines skipped"
        assert f"{src}: 200 lines read, {counts}" in caplog.messages


#: created_at values: Z and z, padding, naive and offset times, fractions,
#: a date alone, a date with an offset and no time, a lone Z, an empty
#: string and values that are not strings.
ISO_INSTANTS = (
    "2015-01-01T15:04:05Z", "2015-01-01T15:04:05z", " 2015-01-01T15:04:05Z ",
    "\t2015-01-01T15:04:05z\n", "2015-01-01T15:04:05", "2015-01-01T15:04:05+05:30",
    "2015-01-01T15:04:05-08:00", "2015-01-01T15:04:05.123456Z", "2015-01-01T15:04:05.5-08:00",
    "2015-01-01", "2015-01-01Z", "2015-01-01z", " 2015-01-01 ", "Z", "z", "", " ",
    "1970-01-01T00:00:00Z", "1970-01-01T00:00:01Z", "9999-12-31T23:59:59Z",
    "9999-12-31T23:59:59-01:00", "2015-01-01 15:04:05Z", "2015-01-01T15:04Z", "20150101T150405Z",
    "2015-01-01T15:04:05ZZ", "2015-01-01T15:04:05+00:00Z", "2015-01-01T15:04:05+0000",
    "2015-13-01T00:00:00Z", "June 1st", 1420124645, 1.5, None, True, ["2015-01-01"],
    "2015-01-01+05:30", "2015-01-01-08:00", "20150101+0530", "2015-W01-4+05", "2015-W01-08:00",
    "2015-01-01+05:30Z", "2015-01-01+00:00Z", "2015-13-01+05:30", "2015-01-01+5",
)


def iso_verdict(parse, value):
    try:
        return parse(value)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("value", ISO_INSTANTS)
def test_iso_instants_read_as_the_rewriting_oracle_reads_them(value):
    assert iso_verdict(ingest._parse_iso_instant, value) == iso_verdict(
        oracles.rewritten_iso_instant, value)


@settings(max_examples=300, deadline=None)
@given(
    day=st.sampled_from(["2015-01-01", "20150101", "2015-W01-4", "2015W014", "2015-W01", "2015-001",
                         "0001-01-01", "9999-12-31", "1969-12-31", "2015-02-30"]),
    sep=st.sampled_from(["", "T", "t", " ", "_"]),
    time=st.sampled_from(["", "15", "15:04", "1504", "15:04:05", "150405", "15:04:05.5",
                          "15:04:05,123", "15:04:05.1234567", "24:00:00", "23:59:60"]),
    zone=st.sampled_from(["", "Z", "z", "+00:00", "-08:00", "+05:30", "+0530", "+05",
                          "+24:00", "Zz", "+00:00Z"]),
    pad=st.sampled_from(["", " ", "\t", "\x1c", "\n "]),
)
def test_generated_iso_instants_read_as_the_rewriting_oracle_reads_them(day, sep, time, zone, pad):
    value = pad + day + sep + time + zone + pad
    assert iso_verdict(ingest._parse_iso_instant, value) == iso_verdict(
        oracles.rewritten_iso_instant, value)


@pytest.mark.parametrize("value, utc", [
    ("2015-01-01+05:30", datetime(2014, 12, 31, 18, 30, tzinfo=timezone.utc)),
    ("2015-01-01-08:00", datetime(2015, 1, 1, 8, 0, tzinfo=timezone.utc)),
])
def test_a_date_with_an_offset_and_no_time_is_midnight_at_that_offset(tmp_path, value, utc):
    assert ingest._parse_iso_instant(value) == int(utc.timestamp())
    src = tmp_path / "g.ndjson"
    write_lines(src, [json.dumps({"type": "WatchEvent", "created_at": value, "repo": {"name": "a/b"}})])
    (record,) = ingest.load_github_events(str(src), "a/b")
    assert record.created_utc == int(utc.timestamp())
