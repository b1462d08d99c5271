"""Daily signal families built from archive records."""

import json
import re
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from coinseer import ingest, signals
from coinseer.harness import grid, synthetic
from coinseer.ingest import CommentRecord, EventRecord, PriceSeries, daily_calendar
import oracles
from oracles import day_of, read_signal_csv


def epoch(day, hour=12):
    return int(datetime(day.year, day.month, day.day, hour, tzinfo=timezone.utc).timestamp())


def comment(day, body, score=1, hour=12):
    return CommentRecord(epoch(day, hour), "CryptoCurrency", body, score)


def event(day, kind, hour=12):
    return EventRecord(epoch(day, hour), "a/b", kind)


CAL = daily_calendar(date(2021, 1, 1), date(2021, 1, 3))


def table(comments, calendar=CAL):
    return signals.comment_table(comments, calendar)


def test_tokenize():
    assert signals.tokenize("It's 9-to-5, OK?") == ["it", "s", "9", "to", "5", "ok"]
    assert signals.tokenize("") == []
    assert signals.tokenize("++--") == []


def test_build_vocabulary_ranks_by_count_then_token():
    comments = [
        comment(CAL[0], "b b b a a c"),
        comment(CAL[1], "a d d"),
    ]
    vocab = signals.build_vocabulary(table(comments), size=3)
    assert vocab.tokens == ("a", "b", "d")
    assert vocab.index == {"a": 0, "b": 1, "d": 2}
    assert len(signals.build_vocabulary(table(comments), size=100)) == 4
    with pytest.raises(ValueError):
        signals.build_vocabulary(table(comments), size=0)
    with pytest.raises(ValueError, match="empty corpus"):
        signals.build_vocabulary(table([comment(CAL[0], "++")]), size=3)
    with pytest.raises(ValueError, match="empty corpus"):
        signals.build_vocabulary(table([]), size=3)


def test_build_vocabulary_counts_comments_outside_the_calendar():
    comments = [comment(CAL[0], "a b"), comment(date(2020, 12, 31), "c c c")]
    assert signals.build_vocabulary(table(comments)).tokens == ("c", "a", "b")


def test_quartiles_examples():
    npt.assert_allclose(signals.quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))
    npt.assert_allclose(signals.quartiles([5.0]), (5.0, 5.0, 5.0))
    assert signals.quartiles([]) == (0.0, 0.0, 0.0)


def test_github_popularity_counts():
    events = [
        event(CAL[0], "Watch"),
        event(CAL[0], "Watch", hour=13),
        event(CAL[0], "Fork", hour=14),
        event(CAL[2], "Watch"),
        event(CAL[2], "Push"),
    ]
    matrix = signals.github_popularity_signal(signals.github_all_signal(events, CAL))
    assert matrix.columns == ("gh_watch", "gh_fork")
    npt.assert_array_equal(matrix.values, [[2, 1], [0, 0], [1, 0]])


def test_github_all_counts_every_type():
    events = [event(CAL[1], kind, hour=h) for h, kind in enumerate(
        ("Watch", "Fork", "Issues", "IssueComment", "Push", "CommitComment",
         "PullRequest", "PullRequestReviewComment"))]
    events.append(event(CAL[1], "Push", hour=20))
    matrix = signals.github_all_signal(events, CAL)
    assert matrix.columns == (
        "gh_all_watch", "gh_all_fork", "gh_all_issues", "gh_all_issuecomment",
        "gh_all_push", "gh_all_commitcomment", "gh_all_pullrequest",
        "gh_all_pullrequestreviewcomment",
    )
    npt.assert_array_equal(matrix.values[1], [1, 1, 1, 1, 2, 1, 1, 1])
    npt.assert_array_equal(matrix.values[0], np.zeros(8))


def test_reddit_volume():
    comments = [comment(CAL[0], "a"), comment(CAL[0], "b", hour=13), comment(CAL[2], "c")]
    matrix = signals.reddit_volume_signal(table(comments))
    assert matrix.columns == ("r_vol",)
    npt.assert_array_equal(matrix.values, [[2], [0], [1]])


def test_reddit_language_rows_normalize():
    vocab = signals.Vocabulary(tokens=("moon", "dip", "hold"))
    comments = [
        comment(CAL[0], "moon moon dip stranger"),
        comment(CAL[2], "unseen words only"),
    ]
    matrix = signals.reddit_language_signal(table(comments), vocab)
    assert matrix.columns == ("r_lang_moon", "r_lang_dip", "r_lang_hold")
    npt.assert_allclose(matrix.values[0], [2 / 3, 1 / 3, 0.0])
    npt.assert_array_equal(matrix.values[1], [0, 0, 0])
    npt.assert_array_equal(matrix.values[2], [0, 0, 0])
    sums = matrix.values.sum(axis=1)
    assert set(np.round(sums, 12)) <= {0.0, 1.0}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_language_and_event_counts_equal_add_at_bitwise(seed):
    """bincount over row * width + col gives np.add.at's bits: on days
    with no vocabulary token, with comments and events off the calendar,
    and with tokens repeated within and across comments."""
    rng = np.random.default_rng(seed)
    cal = daily_calendar(date(2021, 1, 1), date(2021, 1, 12))
    words = [f"w{i}" for i in range(40)]
    days = [cal[0] + timedelta(days=int(d)) for d in rng.integers(-3, len(cal) + 3, 400)]
    comments = [
        comment(day, " ".join(rng.choice(words, rng.integers(0, 30))) + " w0 w0", hour=h % 24)
        for h, day in enumerate(days)
        if day not in (cal[4], cal[7])  # days of out-of-vocabulary tokens only
    ] + [comment(cal[4], "zz yy zz"), comment(cal[7], "")]
    t = table(comments, calendar=cal)
    assert (t.day < 0).any()
    for size in (1, 7, 40):
        vocab = signals.Vocabulary(tokens=tuple(words[:size]))
        got = signals.reddit_language_signal(t, vocab)
        want = oracles.add_at_reddit_language_signal(t, vocab)
        assert got.columns == want.columns
        assert got.values.dtype == want.values.dtype and got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()
        assert not got.values[[4, 7]].any()
    kinds = ingest.EVENT_TYPES
    events = [event(day, kinds[k], hour=h % 24)
              for h, (day, k) in enumerate(zip(days, rng.integers(0, len(kinds), len(days))))]
    got = signals.github_all_signal(events, cal)
    want = oracles.add_at_github_all_signal(events, cal)
    assert got.columns == want.columns
    assert got.values.dtype == want.values.dtype and got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.sum() < len(events)


def test_reddit_score_quartiles():
    comments = [comment(CAL[0], "w", score=s, hour=h) for h, s in enumerate([1, 2, 3, 4])]
    matrix = signals.reddit_score_signal(table(comments))
    npt.assert_allclose(matrix.values[0], [1.75, 2.5, 3.25])
    npt.assert_array_equal(matrix.values[1], [0, 0, 0])


def test_reddit_sentiment_uses_lexicon():
    lexicon = signals.SentimentLexicon(
        entries={"good": (0.8, 0.6), "bad": (-0.7, 0.7)}
    )
    polarity, subjectivity = signals._comment_sentiment(
        table([comment(CAL[0], "Good, GOOD bad"), comment(CAL[0], "nothing known")]), lexicon)
    assert (polarity[0], subjectivity[0]) == (
        pytest.approx((0.8 + 0.8 - 0.7) / 3),
        pytest.approx((0.6 + 0.6 + 0.7) / 3),
    )
    assert (polarity[1], subjectivity[1]) == (0.0, 0.0)

    comments = [comment(CAL[0], "good"), comment(CAL[0], "bad", hour=13)]
    matrix = signals.reddit_sentiment_signal(table(comments), lexicon)
    assert matrix.columns[:3] == ("r_pol_q1", "r_pol_q2", "r_pol_q3")
    npt.assert_allclose(matrix.values[0, 1], 0.05)
    npt.assert_allclose(matrix.values[0, 4], 0.65)
    npt.assert_array_equal(matrix.values[1], np.zeros(6))


def test_bundled_lexicon_loads():
    lexicon = signals.bundled_lexicon()
    assert len(lexicon.entries) >= 20
    for pol, subj in lexicon.entries.values():
        assert -1.0 <= pol <= 1.0
        assert 0.0 <= subj <= 1.0


def test_load_lexicon_rejects_bad_rows(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 tab-separated"):
        signals.load_lexicon(str(path))
    path.write_text("good\t0.5\tx\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad number"):
        signals.load_lexicon(str(path))
    path.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty lexicon"):
        signals.load_lexicon(str(path))
    # a token that tokenize never gives could never match a comment
    for token in ("Good", "can't", ":)", "to the", "naïve", "moon!"):
        path.write_text(f"good\t0.5\t0.5\n{token}\t0.5\t0.5\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            signals.load_lexicon(str(path))
        assert str(err.value) == f"{path}: {token!r} at line 2 is not one word of [a-z0-9]"
    # a repeated token would silently override its earlier line
    path.write_text("# lexicon\ngood\t0.5\t0.5\nbad\t-0.5\t0.5\ngood\t0.7\t0.6\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: 'good' at line 4 is listed twice")):
        signals.load_lexicon(str(path))


def test_signal_matrix_validation():
    with pytest.raises(ValueError):
        signals.SignalMatrix((CAL[0], CAL[2]), ("x",), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        signals.SignalMatrix(CAL, ("x", "x"), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        signals.SignalMatrix(CAL, ("x",), np.array([[1.0], [np.nan], [0.0]]))
    matrix = signals.SignalMatrix(CAL, ("x",), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        matrix.values[0, 0] = 1.0


def test_concat_and_column_lookup():
    a = signals.SignalMatrix(CAL, ("x",), np.ones((3, 1)))
    b = signals.SignalMatrix(CAL, ("y", "z"), np.zeros((3, 2)))
    both = signals.concat_signals([a, b])
    assert both.columns == ("x", "y", "z")
    npt.assert_array_equal(both.column("x"), np.ones(3))
    with pytest.raises(ValueError):
        both.column("missing")
    clash = signals.SignalMatrix(CAL, ("x",), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        signals.concat_signals([a, clash])
    other_cal = daily_calendar(date(2021, 2, 1), date(2021, 2, 3))
    c = signals.SignalMatrix(other_cal, ("w",), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        signals.concat_signals([a, c])


def test_signal_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.normal(size=(3, 2)) * 1e-7
    matrix = signals.SignalMatrix(CAL, ("alpha", "beta"), values)
    path = tmp_path / "m.csv"
    signals.write_signal_csv(str(path), matrix)
    again = read_signal_csv(str(path))
    assert again.dates == matrix.dates
    assert again.columns == matrix.columns
    npt.assert_array_equal(again.values, matrix.values)


def family_inputs():
    comments = [
        comment(CAL[0], "moon good moon", score=3),
        comment(CAL[0], "bad dump", score=-1, hour=15),
        comment(CAL[2], "good hodl"),
    ]
    events = [event(CAL[0], "Watch"), event(CAL[1], "Fork"), event(CAL[1], "Push"),
              event(CAL[2], "Watch", hour=1)]
    lexicon = signals.SentimentLexicon({"good": (0.7, 0.6), "bad": (-0.7, 0.67)})
    return comments, events, lexicon


def test_family_table_extracts_what_each_extractor_does():
    records, events, lexicon = family_inputs()
    comments = table(records)
    vocab = signals.build_vocabulary(comments, size=4)
    assert list(signals.FAMILIES) == ["gh_pop", "gh_all", "r_vol", "r_lang", "r_score", "r_sent"]
    assert [f.label for f in signals.FAMILIES.values()] == [
        "GH_Pop", "GH_All", "R_Vol", "R_Lang", "R_Score", "R_Sent"]
    gh_all = signals.github_all_signal(events, CAL)
    direct = {
        "gh_pop": signals.github_popularity_signal(gh_all),
        "gh_all": gh_all,
        "r_vol": signals.reddit_volume_signal(comments),
        "r_lang": signals.reddit_language_signal(comments, vocab),
        "r_score": signals.reddit_score_signal(comments),
        "r_sent": signals.reddit_sentiment_signal(comments, lexicon),
    }
    got = signals.extract_families(reversed(signals.FAMILIES), CAL, records, events, lexicon,
                                   vocabulary=vocab)
    assert list(got) == list(signals.FAMILIES)
    for name, matrix in got.items():
        assert matrix.columns == direct[name].columns == signals.FAMILIES[name].columns(vocab)
        assert matrix.values.tobytes() == direct[name].values.tobytes()
    npt.assert_array_equal(got["gh_pop"].values, gh_all.values[:, :2])
    # with no vocabulary given, r_lang reads the corpus's top vocab_size tokens
    built = signals.extract_families(["r_lang"], CAL, records, events, lexicon, 4)["r_lang"]
    assert built.values.tobytes() == got["r_lang"].values.tobytes()
    # and is left out when no comment has a token
    tokenless = [comment(CAL[0], "++")]
    without = signals.extract_families(signals.FAMILIES, CAL, tokenless, events, lexicon)
    assert list(without) == ["gh_pop", "gh_all", "r_vol", "r_score", "r_sent"]
    assert signals.extract_families(["r_vol"], CAL, records, events, lexicon).keys() == {"r_vol"}
    assert [f.archive for f in signals.FAMILIES.values()] == ["github"] * 2 + ["reddit"] * 4


def test_parse_families_and_powerset():
    assert signals.parse_families(["r_vol", "gh_pop", "r_vol"]) == ("gh_pop", "r_vol")
    assert signals.parse_families([]) == ()
    with pytest.raises(ValueError, match="unknown signal families: bogus, nope"):
        signals.parse_families(["r_vol", "bogus", "nope"])
    assert signals.family_powerset(["r_sent", "gh_all"]) == [
        (), ("gh_all",), ("r_sent",), ("gh_all", "r_sent")]
    assert signals.family_powerset([]) == [()]
    assert len(signals.family_powerset(signals.FAMILIES)) == 64


def test_families_of_columns():
    columns = ("price_high", "gh_watch", "gh_fork", "r_lang_moon", "r_lang_good", "r_vol")
    families, vocab = signals.families_of_columns(columns)
    assert families == ("gh_pop", "r_vol", "r_lang")
    assert vocab.tokens == ("moon", "good")
    assert signals.families_of_columns(("price_high", "r_pol_q1")) == (("r_sent",), None)
    with pytest.raises(ValueError, match="cannot rebuild signal column 'gh_star'"):
        signals.families_of_columns(("price_high", "gh_star"))


def test_readme_family_table_matches_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` +\| `(\w+)` +\| (.*?) \|", readme, flags=re.M)
    assert [(name, label) for name, label, _ in rows] == [
        (f.name, f.label) for f in signals.FAMILIES.values()]
    cells = {name: set(re.findall(r"`(\w+)`", columns)) for name, _, columns in rows}
    assert cells["gh_pop"] == set(signals.FAMILIES["gh_pop"].columns(None))
    assert cells["r_vol"] == set(signals.FAMILIES["r_vol"].columns(None))
    assert {f"gh_all_{t}" for t in cells["gh_all"]} == set(signals.FAMILIES["gh_all"].columns(None))


# The per-family loops that the comment table replaced, kept as its oracle:
# each family buckets the records by day_of, tokenizes each body
# again, and scores a comment's sentiment with np.mean over its lexicon
# values in token order.


def oracle_buckets(comments, calendar):
    index = {d: i for i, d in enumerate(calendar)}
    buckets = [[] for _ in calendar]
    for rec in comments:
        i = index.get(day_of(rec.created_utc))
        if i is not None:
            buckets[i].append(rec)
    return buckets


def oracle_vocabulary(comments, size):
    counts = {}
    for rec in comments:
        for token in signals.tokenize(rec.body):
            counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(t for t, _ in ranked[:size])


def oracle_sentiment(text, lexicon):
    hits = [lexicon.entries[t] for t in signals.tokenize(text) if t in lexicon.entries]
    if not hits:
        return (0.0, 0.0)
    return (float(np.mean([h[0] for h in hits])), float(np.mean([h[1] for h in hits])))


def oracle_families(comments, calendar, lexicon, vocabulary):
    buckets = oracle_buckets(comments, calendar)
    n = len(calendar)
    lang = np.zeros((n, len(vocabulary)))
    score, sent = np.zeros((n, 3)), np.zeros((n, 6))
    for i, bucket in enumerate(buckets):
        for rec in bucket:
            for token in signals.tokenize(rec.body):
                j = vocabulary.index.get(token)
                if j is not None:
                    lang[i, j] += 1.0
        total = lang[i].sum()
        if total > 0:
            lang[i] /= total
        score[i] = signals.quartiles([rec.score for rec in bucket])
        scored = [oracle_sentiment(rec.body, lexicon) for rec in bucket]
        sent[i, :3] = signals.quartiles([s[0] for s in scored])
        sent[i, 3:] = signals.quartiles([s[1] for s in scored])
    volume = np.array([[float(len(b))] for b in buckets])
    return {"r_vol": volume, "r_lang": lang, "r_score": score, "r_sent": sent}


def oracle_corpus(seed=4, days=30):
    """Comments before, on and after a ``days``-day calendar: empty
    bodies, long ones, and ones with more than 8 lexicon tokens."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(60)]
    lexicon = signals.SentimentLexicon({
        w: (float(rng.uniform(-1, 1)), float(rng.uniform(0, 1))) for w in words[::3]
    })
    calendar = daily_calendar(date(2021, 3, 1), date(2021, 3, days))
    start = epoch(calendar[0], hour=0)
    comments = []
    for _ in range(1500):
        length = int(rng.choice([0, 1, 3, 12, 40]))
        body = " ".join(rng.choice(words, size=length)) + rng.choice(["", "!", " ++"])
        created = start + int(rng.integers(-5 * 86400, (days + 5) * 86400))
        comments.append(CommentRecord(created, "s", body, int(rng.integers(-20, 200))))
    return comments, calendar, lexicon


def test_comment_table_families_equal_the_per_family_loops_bitwise():
    comments, calendar, lexicon = oracle_corpus()
    # sentiment sums the comments of one count of hits as one matrix, over
    # the whole table: here more than 5,000 comments on the calendar hold 9
    rng = np.random.default_rng(5)
    start, span = epoch(calendar[0], hour=0), len(calendar) * 86400
    comments += [CommentRecord(start + int(rng.integers(span)), "s",
                               " ".join(rng.choice(sorted(lexicon.entries), 9)) + " w1", 1)
                 for _ in range(5200)]
    counts = [sum(t in lexicon.entries for t in signals.tokenize(c.body)) for c in comments]
    assert max(counts) > 9 and min(counts) == 0
    assert any(not c.body.strip() for c in comments)
    outside = [day_of(c.created_utc) not in calendar for c in comments]
    assert 0 < sum(outside) < len(comments)
    assert np.bincount([n for n, out in zip(counts, outside) if not out])[9] > 5000
    # on these inputs a sum in another order (np.cumsum's, left to right)
    # than np.mean's gives other bits
    pols = [[lexicon.entries[t][0] for t in signals.tokenize(c.body) if t in lexicon.entries]
            for c in comments]
    assert any(np.cumsum(p)[-1] / len(p) != np.mean(p) for p in pols if p)

    comments_table = signals.comment_table(comments, calendar)
    assert len(comments_table) == len(comments)
    for size in (1, 7, 10000):
        vocab = signals.build_vocabulary(comments_table, size)
        assert vocab.tokens == oracle_vocabulary(comments, size)
    forecast_vocab = signals.Vocabulary(("w7", "absent", "w0", "w59", "neverseen"))
    for vocab in (signals.build_vocabulary(comments_table, 25), forecast_vocab):
        want = oracle_families(comments, calendar, lexicon, vocab)
        got = signals.extract_families(want, calendar, comments, [], lexicon, vocabulary=vocab)
        for name, values in want.items():
            assert got[name].values.tobytes() == values.tobytes(), name
    assert not got["r_lang"].column("r_lang_absent").any()


class UnreadLexicon:
    """A lexicon that fails the test when anything reads its entries."""

    @property
    def entries(self):
        raise AssertionError("the lexicon was read")


def test_only_r_sent_reads_the_lexicon():
    records, events, lexicon = family_inputs()
    names = ["r_vol", "r_lang", "r_score"]
    got = signals.extract_families(names, CAL, records, events, UnreadLexicon(), 4)
    want = signals.extract_families(names, CAL, records, events, lexicon, 4)
    assert list(got) == names
    for name in names:
        assert got[name].values.tobytes() == want[name].values.tobytes(), name
    with pytest.raises(AssertionError, match="the lexicon was read"):
        signals.extract_families(["r_sent"], CAL, records, events, UnreadLexicon())


def test_comment_table_rows_and_scores():
    lexicon = signals.SentimentLexicon({"good": (0.5, 0.25)})
    comments = [comment(CAL[1], "good x GOOD", score=4), comment(date(2021, 1, 4), "good"),
                comment(CAL[0], "", score=-2)]
    got = table(comments)
    assert got.calendar == CAL
    npt.assert_array_equal(got.day, [1, -1, 0])
    npt.assert_array_equal(got.score, [4, 1, -2])
    # sentiment is scored only for comments on the calendar
    npt.assert_array_equal(signals._comment_sentiment(got, lexicon),
                           [[0.5, 0.0, 0.0], [0.25, 0.0, 0.0]])
    npt.assert_array_equal(got.offsets, [0, 3, 4, 4])
    assert [got.tokens[i] for i in got.token_ids] == ["good", "x", "good", "good"]
    # ids in order of first occurrence
    assert got.tokens == ("good", "x")
    assert got.token_ids.dtype == np.int64


def test_deleted_and_removed_bodies_are_kept_as_comments(tmp_path):
    # Pushshift dumps blank the body (and author) of a deleted or removed
    # comment; the loader keeps such a comment, it counts in r_vol, and
    # its one token may enter the r_lang vocabulary
    lines = [
        {"created_utc": epoch(CAL[0], 1), "subreddit": "CryptoCurrency", "author": "[deleted]",
         "body": "[deleted]", "score": 1},
        {"created_utc": epoch(CAL[0], 2), "subreddit": "CryptoCurrency", "author": "[deleted]",
         "body": "[removed]", "score": 1},
        {"created_utc": epoch(CAL[0], 3), "subreddit": "CryptoCurrency", "author": "x",
         "body": "moon", "score": 5},
        {"created_utc": epoch(CAL[1], 4), "subreddit": "CryptoCurrency", "author": "[deleted]",
         "body": "[deleted]", "score": 0},
    ]
    src = tmp_path / "comments.ndjson"
    ingest.write_ndjson(str(src), lines)
    comments = ingest.load_reddit_comments(str(src), "cryptocurrency")
    assert [c.body for c in comments] == ["[deleted]", "[removed]", "moon", "[deleted]"]
    got = table(comments)
    npt.assert_array_equal(signals.reddit_volume_signal(got).values, [[3], [1], [0]])
    vocab = signals.build_vocabulary(got, size=2)
    assert vocab.tokens == ("deleted", "moon")
    lang = signals.reddit_language_signal(got, vocab)
    npt.assert_array_equal(lang.values, [[0.5, 0.5], [1.0, 0.0], [0.0, 0.0]])


def comment_tokens(got):
    """Each comment's tokens, read back from a CommentTable."""
    return [[got.tokens[i] for i in got.token_ids[a:b]]
            for a, b in zip(got.offsets.tolist(), got.offsets[1:].tolist())]


def record_tables(monkeypatch):
    """Record the arguments and result of every comment_table call."""
    tables, comment_table = [], signals.comment_table
    monkeypatch.setattr(signals, "comment_table",
                        lambda *args: tables.append((args, comment_table(*args))) or tables[-1][1])
    return tables


def test_assemble_coin_tokenizes_each_comment_once(monkeypatch):
    # one table per coin, holding every comment once, its tokens those of tokenize
    comments, calendar, lexicon = oracle_corpus(days=10)
    high = np.linspace(10.0, 20.0, len(calendar))
    price = PriceSeries("c", calendar, high - 1.0, high, high - 2.0, high - 1.0)
    tables = record_tables(monkeypatch)
    coin = grid.assemble_coin(price, comments, [], lexicon, vocab_size=20)
    assert list(coin.signals) == list(signals.FAMILIES)
    ((args, got),) = tables
    assert args[0] is comments
    assert len(got.offsets) == len(comments) + 1
    assert comment_tokens(got) == [signals.tokenize(c.body) for c in comments]


def test_synthetic_bundle_builds_the_comment_table_only_for_reddit_families(monkeypatch):
    tables = record_tables(monkeypatch)
    for families in ((), ("gh_pop", "gh_all"), ("r_vol", "r_lang", "r_score")):
        bundle = synthetic.synthetic_bundle(7, 60, ("alphacoin",), families)
        assert list(bundle.coins["alphacoin"].signals) == list(families)
        if "r_vol" not in families:
            assert not tables, families
    (((comments, _), got),) = tables
    assert len(got.offsets) == len(comments) + 1
    assert comment_tokens(got) == [signals.tokenize(c.body) for c in comments]


#: Bodies whose lowercasing or encoding could trip a bulk tokenizer: empty
#: and blank ones, code points that lowercase to ascii (the Kelvin sign) or
#: to more than one code point (İ), ß, final and medial sigma, NUL and other
#: control characters, the lone surrogates that JSON escapes such as
#: "\ud800" decode to, digits and punctuation.
EDGE_BODIES = [
    "", " ", "\t\n \r\x0b\x0c", "İstanbul", "\u212aelvin 5\u212a", "straße STRASSE", "ΣΑΣ σας Σ",
    "a\x00b", "\x00", "x\x01\x1fy\x7fz\x1c", json.loads('"lone\\ud800 surrogate\\udfff"'),
    "It's 9-to-5, OK?", "3.14159 v2_0 #tag @user", "日本語 and ascii", "ǅemal ﬁne Ⅻ",
]


def test_comment_table_tokens_equal_tokenize_per_body():
    assert signals.tokenize("İstanbul") == ["i", "stanbul"]
    assert signals.tokenize("\u212aelvin 5\u212a") == ["kelvin", "5k"]
    assert signals.tokenize("straße") == ["stra", "e"]
    assert signals.tokenize("a\x00b") == ["a", "b"]
    # more comments than one chunk; the last body of the first chunk and
    # the first of the second would join into one token if the chunks ran on
    n = signals._CHUNK + 40
    bodies = [EDGE_BODIES[i % len(EDGE_BODIES)] + f" c{i % 7}" * (i % 3) for i in range(n)]
    bodies[signals._CHUNK - 1], bodies[signals._CHUNK] = "ab", "cd"
    comments = [comment(CAL[i % 3], body) for i, body in enumerate(bodies)]
    got = table(comments)
    want = [signals.tokenize(body) for body in bodies]
    assert len(got.offsets) == n + 1 and got.offsets[0] == 0
    assert comment_tokens(got) == want
    assert want[signals._CHUNK - 1 : signals._CHUNK + 1] == [["ab"], ["cd"]]
    # ids number the distinct tokens in order of first occurrence
    assert got.tokens == tuple(dict.fromkeys(t for tokens in want for t in tokens))
    assert got.token_ids.dtype == np.int64 and got.offsets.dtype == np.int64


def on_days(calendar, day):
    """A CommentTable that places one comment on each row of ``day``."""
    return signals.CommentTable(tuple(calendar), np.asarray(day, dtype=np.int64),
                                np.zeros(len(day)), np.zeros(len(day) + 1, dtype=np.int64),
                                np.zeros(0, dtype=np.int64), ())


def test_day_quartiles_equal_np_quantile_per_day_bitwise():
    rng = np.random.default_rng(19)
    sizes = list(range(21)) + [0, 2000]
    calendar = daily_calendar(date(2021, 1, 1), date(2021, 1, len(sizes)))
    day = np.concatenate([np.repeat(np.arange(len(sizes)), sizes), np.full(50, -1)])
    draws = {
        "ties": lambda n: rng.integers(-3, 4, n).astype(np.float64),
        "scores": lambda n: rng.integers(-10**6, 10**6, n).astype(np.float64),
        "uniform": lambda n: rng.uniform(-1, 1, n),
        "spread": lambda n: rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
    }
    for kind, draw in draws.items():
        for _ in range(5):
            order = rng.permutation(len(day))
            rows, values = day[order], draw(len(day))
            got = signals._day_quartiles(on_days(calendar, rows), values)
            want = np.zeros((len(sizes), 3))
            for i in range(len(sizes)):
                if (rows == i).any():
                    want[i] = np.quantile(values[rows == i], [0.25, 0.5, 0.75])
            assert got.tobytes() == want.tobytes(), kind


def test_negative_zero_lexicon_values_give_positive_zero_quartiles():
    # numpy's sum starts from +0.0, so a comment whose lexicon values are
    # all -0.0 scores +0.0, at any count of hits (pairwise from 8 on)
    assert not np.signbit(np.add.reduce(np.full(1, -0.0)))
    assert not np.signbit(np.add.reduce(np.full(9, -0.0)))
    lexicon = signals.SentimentLexicon({"down": (-0.0, 0.0), "flat": (0.0, -0.0)})
    comments = [comment(CAL[0], "down"), comment(CAL[0], "down flat " * 9, hour=13),
                comment(CAL[1], "flat down x")]
    got = table(comments)
    assert not np.signbit(signals._comment_sentiment(got, lexicon)).any()
    values = signals.reddit_sentiment_signal(got, lexicon).values
    assert values.tobytes() == np.zeros_like(values).tobytes()


def pushshift_line(created_utc, subreddit, body, score=1, **extra):
    """A comment as a Pushshift dump holds it: the fields coinseer reads,
    the ones it ignores, non-ASCII text as \\u escapes."""
    obj = {
        "author": "satoshi", "author_flair_css_class": None, "author_flair_text": None,
        "body": body, "controversiality": 0, "created_utc": created_utc,
        "distinguished": None, "edited": False, "gilded": 0, "id": "cqug90j",
        "link_id": "t3_34f9rh", "parent_id": "t1_cqug2sr", "retrieved_on": 1432703079,
        "score": score, "stickied": False, "subreddit": subreddit, "subreddit_id": "t5_2s3qj",
        "ups": score,
    }
    return json.dumps({**obj, **extra})


def test_pushshift_shaped_comments_load_and_score(tmp_path, caplog):
    day1, day2 = date(2015, 5, 1), date(2015, 5, 2)
    calendar = daily_calendar(day1, date(2015, 5, 3))
    lines = [
        pushshift_line(epoch(day1, 1), "Bitcoin", "To the MOON \U0001f680", score=12),
        pushshift_line(epoch(day1, 2), "bitcoin", "İstanbul moon"),
        # older dumps give created_utc as a string
        pushshift_line(str(epoch(day1, 3)), "Bitcoin", "straße dump", score=-3),
        pushshift_line(epoch(day2, 1), "Bitcoin", "[deleted]", author="[deleted]"),
        # a lone surrogate escape, which a broken dump can hold
        '{"body":"lone \\ud800 surrogate moon","created_utc":%d,"score":2,'
        '"subreddit":"Bitcoin","id":"x","gilded":0}' % epoch(day2, 2),
        pushshift_line(epoch(day2, 3), "BITCOIN", "ΜΟΟΝ"),
        # decoded, since it names "bitcoin", and dropped
        pushshift_line(epoch(day1, 4), "BitcoinMarkets", "moon"),
        # the wanted subreddit with an unreadable time: skipped and counted
        pushshift_line("yesterday", "Bitcoin", "moon"),
    ] + [pushshift_line(epoch(day1, 5), "ethereum", f"gas {i}") for i in range(100)]
    assert all(line.isascii() for line in lines)
    src = tmp_path / "RC_2015-05.ndjson"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level("DEBUG", logger="coinseer.ingest"):
        comments = ingest.load_reddit_comments(str(src), "bitcoin")
    assert caplog.messages == [f"{src}: 108 lines read, 6 records kept, 1 lines skipped"]
    assert [(c.subreddit, c.body, c.score) for c in comments] == [
        ("Bitcoin", "To the MOON \U0001f680", 12), ("bitcoin", "İstanbul moon", 1),
        ("Bitcoin", "straße dump", -3), ("Bitcoin", "[deleted]", 1),
        ("Bitcoin", "lone \ud800 surrogate moon", 2), ("BITCOIN", "ΜΟΟΝ", 1),
    ]
    assert comments[2].created_utc == epoch(day1, 3)

    lexicon = signals.SentimentLexicon({"moon": (0.5, 0.75), "dump": (-0.25, 0.5)})
    got = table(comments, calendar)
    assert comment_tokens(got) == [["to", "the", "moon"], ["i", "stanbul", "moon"],
                                   ["stra", "e", "dump"], ["deleted"],
                                   ["lone", "surrogate", "moon"], []]
    vocab = signals.Vocabulary(("moon", "i", "stanbul", "stra", "e", "deleted"))
    lang = signals.reddit_language_signal(got, vocab).values
    assert lang.tolist() == [[2 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 0.0],
                             [1 / 2, 0.0, 0.0, 0.0, 0.0, 1 / 2], [0.0] * 6]
    sent = signals.reddit_sentiment_signal(got, lexicon).values
    # day 1 polarities (0.5, 0.5, -0.25), subjectivities (0.75, 0.75, 0.5);
    # day 2 (0, 0.5, 0) and (0, 0.75, 0)
    assert sent.tolist() == [[0.125, 0.5, 0.5, 0.625, 0.75, 0.75],
                             [0.0, 0.0, 0.25, 0.0, 0.0, 0.375], [0.0] * 6]


def test_assemble_coin_drops_language_only_when_no_comment_has_tokens(caplog):
    comments, calendar, lexicon = oracle_corpus(days=10)
    high = np.linspace(10.0, 20.0, len(calendar))
    price = PriceSeries("c", calendar, high - 1.0, high, high - 2.0, high - 1.0)
    with pytest.raises(ValueError, match="vocabulary size must be positive"):
        grid.assemble_coin(price, comments, [], lexicon, vocab_size=0)
    tokenless = [c for c in comments if not signals.tokenize(c.body)]
    assert tokenless
    with caplog.at_level("WARNING", logger="coinseer.harness.grid"):
        coin = grid.assemble_coin(price, tokenless, [], lexicon, vocab_size=20)
    assert "r_lang" not in coin.signals
    assert "c: empty comment corpus, language signal unavailable" in caplog.messages


@settings(max_examples=200, deadline=None)
@given(
    start=st.dates(date(1970, 1, 2), date(2100, 1, 1)),
    days=st.integers(1, 40),
    offset=st.integers(-3, 43),
    second=st.sampled_from([-1, 0, 1]),
)
def test_day_row_at_utc_midnight(start, days, offset, second):
    calendar = daily_calendar(start, start + timedelta(days=days - 1))
    day = start + timedelta(days=offset)
    ts = int(datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp()) + second
    want = calendar.index(day_of(ts)) if day_of(ts) in calendar else -1
    assert table([CommentRecord(ts, "s", "x", 1)], calendar=calendar).day.tolist() == [want]
    counts = signals.github_all_signal([EventRecord(ts, "a/b", "Push")], calendar)
    assert counts.column("gh_all_push").tolist() == [float(i == want) for i in range(days)]
