"""Daily signal families built from archive records."""

import re
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from coinseer import signals
from coinseer.ingest import CommentRecord, EventRecord, daily_calendar


def epoch(day, hour=12):
    return int(datetime(day.year, day.month, day.day, hour, tzinfo=timezone.utc).timestamp())


def comment(day, body, score=1, hour=12):
    return CommentRecord(epoch(day, hour), "CryptoCurrency", body, score)


def event(day, kind, hour=12):
    return EventRecord(epoch(day, hour), "a/b", kind)


CAL = daily_calendar(date(2021, 1, 1), date(2021, 1, 3))


def test_tokenize():
    assert signals.tokenize("It's 9-to-5, OK?") == ["it", "s", "9", "to", "5", "ok"]
    assert signals.tokenize("") == []
    assert signals.tokenize("++--") == []


def test_build_vocabulary_ranks_by_count_then_token():
    comments = [
        comment(CAL[0], "b b b a a c"),
        comment(CAL[1], "a d d"),
    ]
    vocab = signals.build_vocabulary(comments, size=3)
    assert vocab.tokens == ("a", "b", "d")
    assert vocab.index == {"a": 0, "b": 1, "d": 2}
    assert len(signals.build_vocabulary(comments, size=100)) == 4
    with pytest.raises(ValueError):
        signals.build_vocabulary(comments, size=0)
    with pytest.raises(ValueError, match="empty corpus"):
        signals.build_vocabulary([comment(CAL[0], "++")], size=3)


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
    matrix = signals.reddit_volume_signal(comments, CAL)
    assert matrix.columns == ("r_vol",)
    npt.assert_array_equal(matrix.values, [[2], [0], [1]])


def test_reddit_language_rows_normalize():
    vocab = signals.Vocabulary(tokens=("moon", "dip", "hold"))
    comments = [
        comment(CAL[0], "moon moon dip stranger"),
        comment(CAL[2], "unseen words only"),
    ]
    matrix = signals.reddit_language_signal(comments, vocab, CAL)
    assert matrix.columns == ("r_lang_moon", "r_lang_dip", "r_lang_hold")
    npt.assert_allclose(matrix.values[0], [2 / 3, 1 / 3, 0.0])
    npt.assert_array_equal(matrix.values[1], [0, 0, 0])
    npt.assert_array_equal(matrix.values[2], [0, 0, 0])
    sums = matrix.values.sum(axis=1)
    assert set(np.round(sums, 12)) <= {0.0, 1.0}


def test_reddit_score_quartiles():
    comments = [comment(CAL[0], "w", score=s, hour=h) for h, s in enumerate([1, 2, 3, 4])]
    matrix = signals.reddit_score_signal(comments, CAL)
    npt.assert_allclose(matrix.values[0], [1.75, 2.5, 3.25])
    npt.assert_array_equal(matrix.values[1], [0, 0, 0])


def test_reddit_sentiment_uses_lexicon():
    lexicon = signals.SentimentLexicon(
        entries={"good": (0.8, 0.6), "bad": (-0.7, 0.7)}
    )
    assert signals.score_sentiment("Good, GOOD bad", lexicon) == (
        pytest.approx((0.8 + 0.8 - 0.7) / 3),
        pytest.approx((0.6 + 0.6 + 0.7) / 3),
    )
    assert signals.score_sentiment("nothing known", lexicon) == (0.0, 0.0)

    comments = [comment(CAL[0], "good"), comment(CAL[0], "bad", hour=13)]
    matrix = signals.reddit_sentiment_signal(comments, lexicon, CAL)
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
    again = signals.read_signal_csv(str(path))
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
    comments, events, lexicon = family_inputs()
    vocab = signals.build_vocabulary(comments, size=4)
    assert list(signals.FAMILIES) == ["gh_pop", "gh_all", "r_vol", "r_lang", "r_score", "r_sent"]
    assert [f.label for f in signals.FAMILIES.values()] == [
        "GH_Pop", "GH_All", "R_Vol", "R_Lang", "R_Score", "R_Sent"]
    gh_all = signals.github_all_signal(events, CAL)
    direct = {
        "gh_pop": signals.github_popularity_signal(gh_all),
        "gh_all": gh_all,
        "r_vol": signals.reddit_volume_signal(comments, CAL),
        "r_lang": signals.reddit_language_signal(comments, vocab, CAL),
        "r_score": signals.reddit_score_signal(comments, CAL),
        "r_sent": signals.reddit_sentiment_signal(comments, lexicon, CAL),
    }
    got = signals.extract_families(
        reversed(signals.FAMILIES), CAL, comments, events, lexicon, vocab
    )
    assert list(got) == list(signals.FAMILIES)
    for name, matrix in got.items():
        assert matrix.columns == direct[name].columns == signals.FAMILIES[name].columns(vocab)
        assert matrix.values.tobytes() == direct[name].values.tobytes()
    npt.assert_array_equal(got["gh_pop"].values, gh_all.values[:, :2])
    without = signals.extract_families(signals.FAMILIES, CAL, comments, events, lexicon, None)
    assert list(without) == ["gh_pop", "gh_all", "r_vol", "r_score", "r_sent"]
    assert signals.extract_families(["r_vol"], CAL, comments, events, lexicon, None).keys() == {"r_vol"}


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
