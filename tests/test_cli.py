"""Command line workflows: synth, ingest, signals, train, forecast, ablate."""

import csv
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest

from coinseer import cli, ingest, lstm, signals
from coinseer.harness import grid
from coinseer.harness import report as harness_report
from coinseer.harness import synthetic
from oracles import read_signal_csv, recorded_with, textbook_adam_step


def run(argv):
    return cli.main(argv)


def synth_dir(tmp_path, days=40, coins=1, seed=5, name="synth"):
    out = tmp_path / name
    rc = run(["synth", "--out", str(out), "--days", str(days),
              "--coins", str(coins), "--seed", str(seed)])
    assert rc == 0
    return out


def test_parse_range_forms():
    assert cli.parse_range("3") == [3]
    assert cli.parse_range("1,2,5") == [1, 2, 5]
    assert cli.parse_range("1..4") == [1, 2, 3, 4]
    assert cli.parse_range(" 2..2 ") == [2]
    for bad in ("5..2", "0", "", "1,0", "-3"):
        with pytest.raises(ValueError):
            cli.parse_range(bad)


def test_parser_rejects_bad_values(capsys):
    # a day count below one is a usage error that names its option
    for command in ("ablate", "train"):
        for flag, value in (("--k", "0"), ("--j", "0"), ("--k", "-2"), ("--j", "x")):
            with pytest.raises(SystemExit) as exc:
                run([command, "--synthetic", flag, value])
            assert exc.value.code == 2
            assert f"error: argument {flag}: " in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run(["train", "--synthetic", "--sizes", "4,-1"])
    capsys.readouterr()


def test_load_config_validation(tmp_path):
    path = tmp_path / "config.json"
    coin = {
        "name": "alpha", "price_csv": "p.csv", "reddit_ndjson": "r.ndjson",
        "subreddit": "alpha", "github_ndjson": "g.ndjson", "repo": "a/b",
    }
    path.write_text(json.dumps({"coins": []}))
    with pytest.raises(ValueError, match="no coins"):
        cli.load_config(str(path))
    path.write_text(json.dumps({"coins": [coin, coin]}))
    with pytest.raises(ValueError, match="duplicate coin"):
        cli.load_config(str(path))
    path.write_text(json.dumps({"coins": [dict(coin, name="Alpha!")]}))
    with pytest.raises(ValueError, match="must match"):
        cli.load_config(str(path))
    missing = {k: v for k, v in coin.items() if k != "repo"}
    path.write_text(json.dumps({"coins": [missing]}))
    with pytest.raises(ValueError, match="missing field"):
        cli.load_config(str(path))

    for raw, message in (
        ({"coins": ["x"]}, "coin 0 must be a JSON object"),
        ([1], "expected a JSON object"),
        ({"coins": [dict(coin, price_csv=5)]}, "coin 0 field 'price_csv' must be a string"),
        ({"coins": [coin], "vocab_size": 2.5}, "vocab_size must be an integer, got 2.5"),
        ({"coins": [coin], "vocab_size": "12"}, "vocab_size must be an integer, got '12'"),
        ({"coins": [coin], "vocab_size": True}, "vocab_size must be an integer, got True"),
        ({"coins": [coin], "start": "2021-02-01", "end": "2021-01-31"},
         "start 2021-02-01 is after end 2021-01-31"),
        ({"coins": [dict(coin, subreddit='al"pha')]},
         "coin 0 field 'subreddit' must not hold a quote"),
        ({"coins": [dict(coin, subreddit="al\npha")]},
         "coin 0 field 'subreddit' must not hold a quote"),
        ({"coins": [dict(coin, repo="a\\b")]}, "coin 0 field 'repo' must not hold a quote"),
        ({"coins": [dict(coin, repo="a/b\t")]}, "coin 0 field 'repo' must not hold a quote"),
    ):
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=message) as exc:
            cli.load_config(str(path))
        assert str(exc.value).startswith(f"{path}: ")

    path.write_text(json.dumps({"coins": [coin], "vocab_size": 0}))
    with pytest.raises(ValueError, match="vocab_size must be positive, got 0"):
        cli.load_config(str(path))

    path.write_text(json.dumps({"coins": [coin], "start": "2021-01-05"}))
    cfg = cli.load_config(str(path))
    assert cfg.start.isoformat() == "2021-01-05"
    assert cfg.coins[0].price_csv == str(tmp_path / "p.csv")


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("knob, value, message", [
    ("--batch-size", "0", "batch_size must be positive"),
    ("--epochs", "0", "max_epochs must be positive"),
    ("--learning-rate", "-1", "learning_rate must be nonnegative"),
    ("--learning-rate", "nan", "learning_rate must be finite, got nan"),
    ("--learning-rate", "inf", "learning_rate must be finite, got inf"),
    ("--train-frac", "1.5", "train_frac must lie in (0, 1)"),
    ("--max-lag", "-1", "max_lag must be nonnegative"),
])
def test_bad_run_settings_fail_before_any_data_is_read(
    tmp_path, capsys, monkeypatch, command, knob, value, message
):
    def read_data(*args):
        raise AssertionError("data was read before the settings were checked")

    monkeypatch.setattr(cli, "_bundle_for", read_data)
    out = tmp_path / "out"
    rc = run([command, "--synthetic", "--days", "60", "--coins", "1",
              "--sizes", "4", knob, value, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


def test_readme_commands_parse():
    # every flag must be spelled out in full: argparse would take a
    # renamed flag's old name as an abbreviation of the new one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("coinseer ")
    ]
    assert len(commands) >= 6
    parser = cli.build_parser()
    for line in commands:
        argv = shlex.split(line)[1:]
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        for flag in (a for a in argv if a.startswith("--")):
            assert flag[2:].replace("-", "_") in parsed, f"{flag} in README: {line}"


def test_bad_jobs_fail_before_any_data_is_read(tmp_path, capsys, monkeypatch):
    test_bad_run_settings_fail_before_any_data_is_read(
        tmp_path, capsys, monkeypatch, "ablate", "--jobs", "0", "jobs must be positive"
    )


@pytest.mark.parametrize("command, knob, value, message", [
    ("train", "--coin", "nope", "unknown coin 'nope'"),
    ("train", "--signal-set", "bogus", "unknown signal families: bogus"),
    ("ablate", "--signals", "bogus", "unknown signal families: bogus"),
])
def test_bad_coins_and_families_fail_before_any_data_is_read(
    tmp_path, capsys, monkeypatch, command, knob, value, message
):
    test_bad_run_settings_fail_before_any_data_is_read(
        tmp_path, capsys, monkeypatch, command, knob, value, message
    )


@pytest.mark.parametrize("knob, value, message", [
    ("--coins", "9", "synthetic coin count must lie in [1, 8], got 9"),
    ("--coins", "-1", "synthetic coin count must lie in [1, 8], got -1"),
    ("--coins", "0", "synthetic coin count must lie in [1, 8], got 0"),
    ("--days", "10", "need at least 30 days, got 10"),
])
def test_synth_checks_its_size_before_writing(tmp_path, capsys, knob, value, message):
    out = tmp_path / "synth"
    assert run(["synth", "--out", str(out), knob, value]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_synth_writes_complete_archive(tmp_path, capsys):
    out = synth_dir(tmp_path, days=35, coins=2)
    stdout = capsys.readouterr().out
    assert "alphacoin: 35 days" in stdout
    for name in ("alphacoin", "betacoin"):
        assert (out / f"price_{name}.csv").exists()
        assert (out / f"reddit_{name}.ndjson").exists()
        assert (out / f"github_{name}.ndjson").exists()
    cfg = cli.load_config(str(out / "config.json"))
    assert [c.name for c in cfg.coins] == ["alphacoin", "betacoin"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 5

    again = synth_dir(tmp_path, days=35, coins=2, name="again")
    for name in ("price_alphacoin.csv", "reddit_betacoin.ndjson", "config.json"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_synth_archives_reproduce_the_synthetic_source(tmp_path, capsys):
    src = synth_dir(tmp_path, days=60, coins=2, seed=3)
    names = synthetic.synthetic_coin_names(2, 60)
    for name, price, comments, events in synthetic.synthetic_coins(3, 60, names):
        loaded = ingest.load_price_series(str(src / f"price_{name}.csv"), name)
        assert loaded.dates == price.dates
        for field in ("open", "high", "low", "close"):
            assert getattr(loaded, field).tobytes() == getattr(price, field).tobytes()
        assert ingest.load_reddit_comments(str(src / f"reddit_{name}.ndjson"), name) == comments
        assert ingest.load_github_events(
            str(src / f"github_{name}.ndjson"), f"{name}/{name}") == events

    sizes = ["--k", "1", "--j", "1", "--sizes", "4", "--epochs", "1", "--jobs", "1", "--seed", "3"]
    runs = {}
    for source in (["--config", str(src / "config.json")],
                   ["--synthetic", "--days", "60", "--coins", "2"]):
        out = tmp_path / source[0][2:]
        assert run(["ablate", *source, *sizes, "--out", str(out)]) == 0
        runs[source[0]] = {p.name: p.read_bytes() for p in out.iterdir()
                           if p.name != "run_manifest.json"}
    assert len(runs["--config"]) > 1
    assert runs["--config"] == runs["--synthetic"]
    capsys.readouterr()


def test_ingest_reports_summary(tmp_path, capsys):
    out = synth_dir(tmp_path)
    capsys.readouterr()
    assert run(["ingest", "--config", str(out / "config.json")]) == 0
    stdout = capsys.readouterr().out
    assert "alphacoin: 40 days" in stdout
    assert "comments" in stdout and "events" in stdout
    # a missing price day inside the range is forward-filled and counted
    price = out / "price_alphacoin.csv"
    lines = price.read_text().splitlines()
    price.write_text("\n".join(lines[:10] + lines[11:]) + "\n")
    assert run(["ingest", "--config", str(out / "config.json")]) == 0
    assert "alphacoin: 40 days 2020-01-01..2020-02-09 (1 forward-filled)" in capsys.readouterr().out


def test_signals_and_correlate_write_csvs(tmp_path, capsys):
    src = synth_dir(tmp_path)
    sig_out = tmp_path / "sig"
    assert run(["signals", "--config", str(src / "config.json"),
                "--out", str(sig_out)]) == 0
    files = sorted(p.name for p in sig_out.iterdir())
    for family in ("gh_pop", "gh_all", "r_vol", "r_lang", "r_score", "r_sent"):
        assert f"signals_alphacoin_{family}.csv" in files
    matrix = read_signal_csv(str(sig_out / "signals_alphacoin_gh_pop.csv"))
    assert matrix.columns == ("gh_watch", "gh_fork")
    assert len(matrix.dates) == 40

    corr_out = tmp_path / "corr"
    assert run(["correlate", "--config", str(src / "config.json"),
                "--out", str(corr_out)]) == 0
    lines = (corr_out / "correlation_alphacoin.csv").read_text().splitlines()
    assert lines[0] == "signal,pearson_r,pearson_p,distance_corr,sigma,iqr"
    assert any(line.startswith("gh_watch,") for line in lines)
    capsys.readouterr()


def test_train_then_forecast_round_trip(tmp_path, capsys):
    src = synth_dir(tmp_path, days=40)
    train_out = tmp_path / "trained"
    rc = run(["train", "--config", str(src / "config.json"),
              "--signal-set", "gh_pop", "--k", "2", "--j", "1",
              "--sizes", "4", "--epochs", "2", "--seed", "3",
              "--out", str(train_out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "test MAPE" in stdout and "RMSPE" in stdout
    model_path = train_out / "model_alphacoin_lstm_gh_pop_k2_j1.bin"
    assert model_path.exists()
    assert (train_out / "results.json").exists()
    manifest = json.loads((train_out / "run_manifest.json").read_text())
    assert manifest["args"] == {
        "source": "config.json", "days": None, "coins": None,
        "coin": "alphacoin", "signal_set": ["gh_pop"], "k": 2, "j": 1,
        "train_frac": 0.8, "sizes": [4], "batch_size": 16, "learning_rate": 0.001,
        "epochs": 2, "patience": 2, "max_lag": 5, "train_only_norm": False,
    }

    rc = run(["forecast", "--model", str(model_path),
              "--config", str(src / "config.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coin"] == "alphacoin"
    assert payload["horizon_days"] == 1
    assert payload["target_date"] > payload["anchor_date"]
    assert isinstance(payload["prediction_usd"], float)


#: The OpenBLAS kernel set (oracles.blas_core_name) that both digest sets
#: below were recorded with.
TRAIN_FORECAST_BLAS_CORE = "SkylakeX"

# sha256 of the model file and of the forecast line of a small
# `train --synthetic` run per window size, recorded before k=1 training
# moved to its packed one-step span (numpy 2.4.6, OpenBLAS 0.3.31,
# x86-64). At these layer sizes no product is large enough for OpenBLAS
# to split, so the bytes do not depend on its thread count. The textbook
# Adam step (oracles.textbook_adam_step), with every weight drawn at k=1,
# reproduces them.
TRAIN_FORECAST_SHA256 = {
    "1": ("be157a29ee9fccbb71c54b91c5d99f096602a5a90d3354d4aa2f1be91c724dfe",
          "9104c514a2906f79b236f3a0be98226d95de84a12dbff906eccde2ad7ee5dca4"),
    "7": ("e02b421322361f79b5880e37edd1daef846eb43e303d87ee10e10e778108f9f7",
          "bf6026d2e5d20455b74e90defa40ea8597c24777f91efcfff6fbf0e45f999f66"),
}

# The digests of the same runs since adam_step keeps its moments
# rescaled, which moves the last bits of trained weights, and since a k=1
# network leaves u1 and u2 undrawn at zero. Both model files moved; both
# forecast lines kept their bits.
RESCALED_ADAM_TRAIN_FORECAST_SHA256 = {
    "1": ("58884585d4953dbb7081a8904a50e01363e352c2fdc2e4f64fb92c13bb5d49bb",
          "9104c514a2906f79b236f3a0be98226d95de84a12dbff906eccde2ad7ee5dca4"),
    "7": ("d6f5689c06c5ada493b0ef45f47f3e1b07015a7532956d0326fbf1d33f105404",
          "bf6026d2e5d20455b74e90defa40ea8597c24777f91efcfff6fbf0e45f999f66"),
}

# The digests of the same runs since training computes in float32 (the
# model file stays float64): both model files and both forecast lines
# moved. The digests above are float64 training's, which the
# float64_training fixture restores.
FLOAT32_TRAIN_FORECAST_SHA256 = {
    "1": ("fc1fa4110221bdf42d5c126c9aa3829c73084423283b625303a4e6e23f5da9e9",
          "3349a35e4fcbab6d682f23aa7a9e8225728b9dfc6e27a57d86844121dc8e6fbf"),
    "7": ("83eee44796138be3afdd5b44a4fd8d02feacde422888bce76e7da1c46c9a72c1",
          "77ca2e0618a067e4180b7fb2fc3338d279bce39f09e72979ac0ede56d58be3de"),
}


def synthetic_train_and_forecast_digests(tmp_path, capsys, k):
    """sha256 of the model file and of the forecast line, and the model's path."""
    src = synth_dir(tmp_path, days=60, seed=3)
    out = tmp_path / "trained"
    assert run(["train", "--synthetic", "--days", "60", "--coins", "1", "--seed", "3",
                "--signal-set", "gh_pop,r_vol", "--k", k, "--sizes", "8,16",
                "--epochs", "3", "--out", str(out)]) == 0
    (model,) = out.glob("model_*.bin")
    capsys.readouterr()
    assert run(["forecast", "--model", str(model), "--config", str(src / "config.json")]) == 0
    line = capsys.readouterr().out
    return tuple(hashlib.sha256(b).hexdigest() for b in (model.read_bytes(), line.encode())), model


@pytest.mark.parametrize("k", sorted(RESCALED_ADAM_TRAIN_FORECAST_SHA256))
def test_train_and_forecast_bytes_match_record(float64_training, tmp_path, capsys, k):
    digests, model = synthetic_train_and_forecast_digests(tmp_path, capsys, k)
    assert digests == RESCALED_ADAM_TRAIN_FORECAST_SHA256[k], recorded_with(TRAIN_FORECAST_BLAS_CORE)
    params = lstm.load_model(str(model)).network.params
    # at k=1 the recurrent weights are never drawn, so they are saved as zeros
    assert all(params[key].any() == (k != "1") for key in ("u1", "u2"))


@pytest.mark.parametrize("k", sorted(FLOAT32_TRAIN_FORECAST_SHA256))
def test_float32_training_train_and_forecast_bytes_match_record(tmp_path, capsys, k):
    digests, _ = synthetic_train_and_forecast_digests(tmp_path, capsys, k)
    assert digests == FLOAT32_TRAIN_FORECAST_SHA256[k], recorded_with(TRAIN_FORECAST_BLAS_CORE)


@pytest.mark.parametrize("k", sorted(TRAIN_FORECAST_SHA256))
def test_textbook_adam_step_and_full_draw_reproduce_recorded_train_and_forecast_bytes(
    float64_training, monkeypatch, tmp_path, capsys, k
):
    full_draw = lstm.init_network
    monkeypatch.setattr(lstm, "init_network", lambda *args, k=None, **kw: full_draw(*args, **kw))
    monkeypatch.setattr(lstm, "adam_step", textbook_adam_step)
    digests, _ = synthetic_train_and_forecast_digests(tmp_path, capsys, k)
    assert digests == TRAIN_FORECAST_SHA256[k], recorded_with(TRAIN_FORECAST_BLAS_CORE)


def record_matrices(monkeypatch):
    """Keep every training matrix and every matrix forecast rebuilds."""
    seen = {"trained": [], "rebuilt": []}
    # forecast builds its matrix through grid.feature_matrix too, so a
    # matrix that _matrix_for_columns returns is taken back out of "trained"
    for module, name, key in ((grid, "feature_matrix", "trained"),
                              (cli, "_matrix_for_columns", "rebuilt")):
        def keep(*args, _fn=getattr(module, name), _key=key):
            matrix = _fn(*args)
            seen[_key].append(matrix)
            if _key == "rebuilt":
                seen["trained"] = [m for m in seen["trained"] if m is not matrix]
            return matrix
        monkeypatch.setattr(module, name, keep)
    return seen


def train_model(tmp_path, config, signal_set):
    """The model file of a small k=2, j=1 train on ``config``."""
    out = tmp_path / f"trained_{signal_set}"
    assert run(["train", "--config", str(config), "--signal-set", signal_set,
                "--k", "2", "--j", "1", "--sizes", "4", "--epochs", "2",
                "--seed", "3", "--out", str(out)]) == 0
    (model,) = out.glob("model_*.bin")
    return model


def train_and_forecast(tmp_path, config, signal_set, forecast_config=None):
    model = train_model(tmp_path, config, signal_set)
    return run(["forecast", "--model", str(model),
                "--config", str(forecast_config or config)])


def test_forecast_rebuilds_the_training_matrix_of_every_family(tmp_path, capsys, monkeypatch):
    src = synth_dir(tmp_path, days=40)
    seen = record_matrices(monkeypatch)
    subsets = list(signals.FAMILIES) + [",".join(signals.FAMILIES)]
    for signal_set in subsets:
        assert train_and_forecast(tmp_path, src / "config.json", signal_set) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["coin"] == "alphacoin"
    assert len(seen["trained"]) == len(seen["rebuilt"]) == len(subsets)
    for signal_set, trained, rebuilt in zip(subsets, seen["trained"], seen["rebuilt"]):
        families = signal_set.split(",")
        assert len(trained.columns) > len(families), signal_set
        assert rebuilt.columns == trained.columns
        assert rebuilt.dates == trained.dates
        assert rebuilt.values.tobytes() == trained.values.tobytes(), signal_set


def test_forecast_without_comments_gives_zero_language_rows(tmp_path, capsys, monkeypatch):
    src = synth_dir(tmp_path, days=40)
    config = json.loads((src / "config.json").read_text())
    empty = tmp_path / "no_comments.ndjson"
    empty.write_text("")
    config["coins"][0]["reddit_ndjson"] = str(empty)
    quiet = src / "quiet.json"
    quiet.write_text(json.dumps(config))
    seen = record_matrices(monkeypatch)
    assert train_and_forecast(tmp_path, src / "config.json", "r_lang", quiet) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert math.isfinite(payload["prediction_usd"])
    (trained,), (rebuilt,) = seen["trained"], seen["rebuilt"]
    assert rebuilt.columns == trained.columns
    lang = [i for i, c in enumerate(rebuilt.columns) if c.startswith("r_lang_")]
    assert lang and trained.values[:, lang].any()
    assert not rebuilt.values[:, lang].any()


def test_forecast_reads_only_the_archives_its_families_read(tmp_path, capsys, monkeypatch):
    src = synth_dir(tmp_path, days=40)
    models = {}
    for signal_set in ("price", "r_vol"):
        assert train_and_forecast(tmp_path, src / "config.json", signal_set) == 0
        (models[signal_set],) = (tmp_path / f"trained_{signal_set}").glob("model_*.bin")
    capsys.readouterr()

    def forecast(signal_set):
        assert run(["forecast", "--model", str(models[signal_set]),
                    "--config", str(src / "config.json")]) == 0
        return capsys.readouterr().out

    before = {signal_set: forecast(signal_set) for signal_set in models}

    def unread(path, *args):
        raise AssertionError(f"forecast read {path}")

    monkeypatch.setattr(ingest, "load_github_events", unread)
    assert forecast("r_vol") == before["r_vol"]
    monkeypatch.setattr(ingest, "load_reddit_comments", unread)
    assert forecast("price") == before["price"]
    assert json.loads(before["price"])["coin"] == "alphacoin"


def test_commands_read_only_the_archives_their_families_read(tmp_path, capsys, monkeypatch):
    src = synth_dir(tmp_path, days=40)
    config = str(src / "config.json")
    train = ["train", "--config", config, "--k", "2", "--j", "1", "--sizes", "4",
             "--epochs", "2", "--seed", "3"]
    ablate = ["ablate", "--config", config, "--signals", "r_vol", "--k", "1", "--j", "1",
              "--sizes", "4", "--epochs", "2", "--seed", "3", "--jobs", "1"]

    def unread(path, *args):
        raise AssertionError(f"read {path}")

    def model_digest(out):
        (model,) = out.glob("model_*.bin")
        return hashlib.sha256(model.read_bytes()).hexdigest()

    with monkeypatch.context() as m:
        m.setattr(ingest, "load_github_events", unread)
        assert run(train + ["--signal-set", "r_vol", "--out", str(tmp_path / "r_vol")]) == 0
        assert run(ablate + ["--out", str(tmp_path / "ablate_r_vol")]) == 0
        m.setattr(ingest, "load_reddit_comments", unread)
        assert run(train + ["--signal-set", "price", "--out", str(tmp_path / "price")]) == 0
    comments = len((src / "reddit_alphacoin.ndjson").read_text().splitlines())
    head = "alphacoin: 40 days 2020-01-01..2020-02-09 (0 forward-filled)"
    summaries = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("alphacoin:")]
    assert summaries == [f"{head}, {comments} comments"] * 2 + [head]

    # the same bytes as from a bundle with every family extracted
    build_bundle = cli.build_bundle
    monkeypatch.setattr(cli, "build_bundle",
                        lambda cfg, families, vocabulary=None, names=None:
                        build_bundle(cfg, signals.FAMILIES, vocabulary, names))
    for signal_set in ("r_vol", "price"):
        out = tmp_path / f"all_{signal_set}"
        assert run(train + ["--signal-set", signal_set, "--out", str(out)]) == 0
        assert model_digest(out) == model_digest(tmp_path / signal_set), signal_set
    assert run(ablate + ["--out", str(tmp_path / "ablate_all")]) == 0
    for name in ("results.json", "ranking.csv", "metrics.csv"):
        assert ((tmp_path / "ablate_all" / name).read_bytes()
                == (tmp_path / "ablate_r_vol" / name).read_bytes()), name
    capsys.readouterr()


def test_a_bad_date_range_fails_before_any_archive_is_read(tmp_path, capsys, monkeypatch):
    src = synth_dir(tmp_path, days=40, coins=2)
    # betacoin's prices now start two days after the configured start
    price = src / "price_betacoin.csv"
    lines = price.read_text().splitlines()
    price.write_text("\n".join(lines[:1] + lines[3:]) + "\n")
    config = src / "config.json"
    config.write_text(json.dumps(dict(json.loads(config.read_text()), start="2020-01-01")))

    def unread(path, *args):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(ingest, "load_reddit_comments", unread)
    monkeypatch.setattr(ingest, "load_github_events", unread)
    capsys.readouterr()
    assert run(["ingest", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: requested range 2020-01-01..2020-02-09 extends beyond available "
        "data 2020-01-03..2020-02-09"
    ]


def test_train_coin_reads_only_that_coins_archives(tmp_path, capsys, monkeypatch):
    src = synth_dir(tmp_path, days=40, coins=2)
    # alphacoin's prices end five days early, which shortens the common range
    price = src / "price_alphacoin.csv"
    price.write_text("\n".join(price.read_text().splitlines()[:-5]) + "\n")
    config = str(src / "config.json")
    train = ["train", "--config", config, "--coin", "betacoin", "--signal-set", "r_vol",
             "--k", "2", "--j", "1", "--sizes", "4", "--epochs", "2", "--seed", "3"]
    load_reddit_comments = ingest.load_reddit_comments

    def read_beta_only(path, *args):
        assert "alphacoin" not in os.path.basename(path), f"read {path}"
        return load_reddit_comments(path, *args)

    def model_digest(out):
        (model,) = out.glob("model_*.bin")
        return hashlib.sha256(model.read_bytes()).hexdigest()

    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(ingest, "load_reddit_comments", read_beta_only)
        assert run(train + ["--out", str(tmp_path / "one")]) == 0
    comments = len((src / "reddit_betacoin.ndjson").read_text().splitlines())
    assert capsys.readouterr().err.splitlines() == [
        f"betacoin: 35 days 2020-01-01..2020-02-04 (0 forward-filled), {comments} comments"
    ]

    # the same bytes as from a bundle of every configured coin
    build_bundle = cli.build_bundle
    monkeypatch.setattr(cli, "build_bundle", lambda cfg, families, vocabulary=None, names=None:
                        build_bundle(cli.load_config(config), families, vocabulary))
    assert run(train + ["--out", str(tmp_path / "all")]) == 0
    assert "alphacoin: 35 days" in capsys.readouterr().err
    assert model_digest(tmp_path / "one") == model_digest(tmp_path / "all")
    for name in ("results.json", "run_manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_train_coin_reads_each_price_file_once(tmp_path, monkeypatch):
    src = synth_dir(tmp_path, days=40, coins=2)
    # alphacoin's prices end five days early, which shortens the common range
    price = src / "price_alphacoin.csv"
    price.write_text("\n".join(price.read_text().splitlines()[:-5]) + "\n")
    train = ["train", "--coin", "betacoin", "--signal-set", "r_vol", "--k", "2", "--j", "1",
             "--sizes", "4", "--epochs", "2", "--seed", "3"]
    reads = []
    load_price_series = ingest.load_price_series
    with monkeypatch.context() as m:
        m.setattr(ingest, "load_price_series",
                  lambda path, coin: reads.append(os.path.basename(path))
                  or load_price_series(path, coin))
        assert run(train + ["--config", str(src / "config.json"),
                            "--out", str(tmp_path / "once")]) == 0
    assert sorted(reads) == ["price_alphacoin.csv", "price_betacoin.csv"]

    # the same bytes as from betacoin alone over the common range, which the
    # range read first and the coin read again used to give
    cfg = json.loads((src / "config.json").read_text())
    cfg["coins"] = [c for c in cfg["coins"] if c["name"] == "betacoin"]
    cfg["start"], cfg["end"] = "2020-01-01", "2020-02-04"
    (src / "betacoin.json").write_text(json.dumps(cfg))
    assert run(train + ["--config", str(src / "betacoin.json"),
                        "--out", str(tmp_path / "alone")]) == 0
    for name in ("model_betacoin_lstm_r_vol_k2_j1.bin", "results.json"):
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_train_synthetic_coin_generates_and_extracts_only_that_coin(tmp_path, monkeypatch):
    train = ["train", "--synthetic", "--days", "40", "--coins", "2", "--coin", "betacoin",
             "--signal-set", "r_vol", "--k", "2", "--j", "1", "--sizes", "4",
             "--epochs", "2", "--seed", "3"]
    tables = []
    comment_table = signals.comment_table
    with monkeypatch.context() as m:
        m.setattr(signals, "comment_table",
                  lambda *args: tables.append(args) or comment_table(*args))
        assert run(train + ["--out", str(tmp_path / "one")]) == 0
    assert len(tables) == 1

    # the same bytes as from a bundle of every synthetic coin
    bundle = synthetic.synthetic_bundle
    monkeypatch.setattr(synthetic, "synthetic_bundle", lambda seed, days, names, families:
                        bundle(seed, days, synthetic.SYNTH_COIN_NAMES[:2], families))
    assert run(train + ["--out", str(tmp_path / "all")]) == 0
    for name in ("model_betacoin_lstm_r_vol_k2_j1.bin", "results.json", "run_manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_verbose_logs_training_to_stderr_only(tmp_path):
    out = tmp_path / "trained"
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coinseer.cli", "-v", "train", "--synthetic",
         "--days", "40", "--coins", "1", "--sizes", "4", "--epochs", "2",
         "--patience", "0", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    epochs = [line for line in proc.stderr.splitlines() if "validation MSE" in line]
    assert len(epochs) == 2
    assert epochs[0].startswith("DEBUG coinseer.lstm: epoch 1: train MSE ")
    assert "DEBUG coinseer.lstm: best epoch " in proc.stderr
    for path in out.iterdir():
        assert b"validation MSE" not in path.read_bytes()


def test_verbose_correlate_logs_timings_to_stderr_only(tmp_path):
    src = synth_dir(tmp_path)
    reddit = src / "reddit_alphacoin.ndjson"
    comments = len(reddit.read_text().splitlines())
    with reddit.open("a") as fh:
        fh.write("{broken\n")
    events = len((src / "github_alphacoin.ndjson").read_text().splitlines())
    out = tmp_path / "corr"
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    runs = []
    for flags in ([], ["-v"]):
        if out.exists():
            shutil.rmtree(out)
        proc = subprocess.run(
            [sys.executable, "-m", "coinseer.cli", *flags, "correlate",
             "--config", str(src / "config.json"), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((proc.stdout, proc.stderr, files))
    (quiet_out, quiet_err, quiet_files), (loud_out, loud_err, loud_files) = runs
    assert loud_out == quiet_out and loud_files == quiet_files
    assert quiet_err == ""
    lines = loud_err.splitlines()
    assert len(lines) == 4 and all(line.startswith("DEBUG ") for line in lines)
    assert lines[0] == (f"DEBUG coinseer.ingest: {reddit}: {comments + 1} lines read, "
                        f"{comments} records kept, 1 lines skipped")
    assert lines[1] == (f"DEBUG coinseer.ingest: {src / 'github_alphacoin.ndjson'}: "
                        f"{events} lines read, {events} records kept, 0 lines skipped")
    assert ": bundle built in " in lines[2]
    assert re.search(r": alphacoin: \d+ columns x 40 days; correlation table ", lines[3])
    assert ", CSV " in lines[3]


def test_forecast_rejects_junk_model(tmp_path, capsys):
    src = synth_dir(tmp_path)
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"nope\n")
    rc = run(["forecast", "--model", str(junk),
              "--config", str(src / "config.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def config_with(src, name, **fields):
    """A copy of ``src``'s config.json beside it, with ``fields`` set."""
    path = src / name
    path.write_text(json.dumps({**json.loads((src / "config.json").read_text()), **fields}))
    return path


def test_forecast_warns_when_its_data_ends_inside_the_training_period(tmp_path, capsys):
    src = synth_dir(tmp_path)
    model = train_model(tmp_path, src / "config.json", "gh_pop")
    train_end = lstm.load_model(str(model)).train_end
    capsys.readouterr()
    for end, warns in ((train_end, True), (train_end + timedelta(days=1), False)):
        config = config_with(src, f"end_{end}.json", end=end.isoformat())
        assert run(["forecast", "--model", str(model), "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["anchor_date"] == end.isoformat()
        warning = (f"warning: data ends {end}, not newer than the model's "
                   f"training period (through {train_end})")
        assert captured.err.splitlines() == ([warning] if warns else [])


def test_forecast_failures_exit_2(tmp_path, capsys):
    src = synth_dir(tmp_path)
    model = train_model(tmp_path, src / "config.json", "gh_pop")
    one_day = config_with(src, "one_day.json", start="2020-01-10", end="2020-01-10")
    blob = model.read_bytes()
    windowless = tmp_path / "windowless.bin"
    windowless.write_bytes(blob.replace(b'"k": 2,', b'"k": 0,', 1))
    assert windowless.read_bytes() != blob
    capsys.readouterr()
    for argv, message in (
        (["--config", str(one_day)], "need at least 2 aligned days, have 1"),
        (["--config", str(src / "config.json"), "--coin", "nope"],
         f"coin 'nope' not in {src / 'config.json'}"),
    ):
        assert run(["forecast", "--model", str(model), *argv]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert run(["forecast", "--model", str(windowless),
                "--config", str(src / "config.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {windowless}: model lacks window metadata"]


def test_ablate_end_to_end_and_report(tmp_path, capsys):
    out1 = tmp_path / "run1"
    argv = ["ablate", "--synthetic", "--days", "40", "--coins", "1",
            "--k", "1", "--j", "1", "--signals", "none",
            "--sizes", "4", "--epochs", "2", "--seed", "11"]
    assert run(argv + ["--out", str(out1)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "ranking.csv" in names
    assert "metrics.csv" in names
    assert "report.txt" in names
    assert "results.json" in names
    assert "run_manifest.json" in names
    assert any(n.startswith("predictions_") for n in names)
    assert any(n.endswith(".svg") for n in names)
    manifest = json.loads((out1 / "run_manifest.json").read_text())
    assert manifest["args"] == {  # every setting but --jobs, which changes no byte
        "source": "synthetic", "days": 40, "coins": 1, "signals": "none",
        "k": [1], "j": [1], "train_frac": 0.8, "sizes": [4], "batch_size": 16,
        "learning_rate": 0.001, "epochs": 2, "patience": 2, "max_lag": 5,
        "train_only_norm": False,
    }

    out2 = tmp_path / "run2"
    assert run(argv + ["--out", str(out2), "--jobs", "2"]) == 0
    for name in ("results.json", "ranking.csv", "metrics.csv", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    rep = tmp_path / "rep"
    assert run(["report", "--results", str(out1 / "results.json"),
                "--out", str(rep)]) == 0
    assert (rep / "ranking.csv").read_bytes() == (out1 / "ranking.csv").read_bytes()
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_ablate_with_failed_experiments_writes_its_report_and_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    # every LSTM step overflows; the three ARIMA experiments still score
    assert run(["ablate", "--synthetic", "--days", "60", "--coins", "1", "--sizes", "4",
                "--epochs", "2", "--learning-rate", "1e200", "--jobs", "1",
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"wrote 11 files to {out}"]
    assert captured.err.splitlines()[-1] == "12 of 15 experiments failed"
    assert len(list(out.iterdir())) == 11
    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    failed = [row for row in rows if row["model"] == "LSTM"]
    assert len(failed) == 12
    for row in failed:
        assert row["error"].startswith("non-finite gradient"), row
        assert row["rmspe"] == row["n"] == ""
    assert all(row["error"] == "" and row["rmspe"] for row in rows if row["model"] == "ARIMA")


def test_ablate_with_no_successful_experiment_exits_1(tmp_path, capsys, monkeypatch):
    def fail(cfg, *args):
        raise ValueError(f"no {cfg.model_kind} fit")

    monkeypatch.setattr(grid, "_run_arima", fail)
    monkeypatch.setattr(grid, "train_lstm_experiment", fail)
    out = tmp_path / "run"
    assert run(["ablate", "--synthetic", "--days", "60", "--coins", "1", "--sizes", "4",
                "--signals", "none", "--k", "1", "--j", "1", "--jobs", "1",
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: no successful results to rank"
    assert sorted(p.name for p in out.iterdir()) == ["results.json", "run_manifest.json"]
    results = harness_report.load_results(str(out / "results.json"))
    assert sorted(r.error for r in results) == ["no arima fit", "no lstm fit"]


@pytest.mark.parametrize("payload, problem", [
    ({"results": [{"metrics": None}]}, "KeyError: 'config'"),
    ([1], "TypeError: list indices must be integers or slices, not str"),
])
def test_report_on_results_of_the_wrong_shape_names_the_file(tmp_path, capsys, payload, problem):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        harness_report.load_results(str(path))
    assert str(exc.value) == f"{path}: not a results file ({problem})"
    out = tmp_path / "rep"
    assert run(["report", "--results", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {exc.value}"]
    assert not out.exists()


def test_ablate_bytes_do_not_depend_on_jobs_or_blas_threads(tmp_path, capsys):
    # At 400,800 units the GEMMs are large enough for OpenBLAS to split
    # them, so a grid run at two BLAS threads would write other bytes.
    argv = ["ablate", "--synthetic", "--days", "60", "--coins", "1", "--k", "1",
            "--j", "1", "--seed", "3", "--epochs", "2", "--sizes", "400,800"]
    control = grid._openblas_thread_control()
    if control is not None:
        get_threads, set_threads = control
        default = get_threads()
        set_threads(2)
    try:
        for jobs in ("1", "2"):
            assert run(argv + ["--jobs", jobs, "--out", str(tmp_path / f"jobs{jobs}")]) == 0
            if control is not None:
                assert get_threads() == 2
    finally:
        if control is not None:
            set_threads(default)
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "coinseer.cli", *argv, "--out", str(tmp_path / f"blas{threads}")],
            capture_output=True, text=True, env=dict(env, OPENBLAS_NUM_THREADS=threads),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    capsys.readouterr()

    def files(name):
        return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}

    serial = files("jobs1")
    assert len(serial) == 15
    for name in ("jobs2", "blas1", "blas2"):
        assert files(name) == serial, name


def test_ablate_all_runs_the_families_the_data_has(tmp_path, capsys):
    src = synth_dir(tmp_path, days=40)
    config = json.loads((src / "config.json").read_text())
    empty = tmp_path / "no_comments.ndjson"
    empty.write_text("")
    config["coins"][0]["reddit_ndjson"] = str(empty)
    quiet = src / "quiet.json"
    quiet.write_text(json.dumps(config))
    argv = ["ablate", "--config", str(quiet), "--k", "1", "--j", "1", "--sizes", "4",
            "--epochs", "1", "--seed", "3", "--jobs", "1"]
    out = tmp_path / "lang"
    assert run(argv + ["--signals", "gh_pop,r_lang", "--out", str(out)]) == 2
    assert "signal families unavailable for this data: r_lang" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv + ["--signals", "all", "--out", str(tmp_path / "all")]) == 0
    results = harness_report.load_results(str(tmp_path / "all" / "results.json"))
    lstm_sets = [r.config.signal_set for r in results if r.config.model_kind == "lstm"]
    assert lstm_sets == signals.family_powerset(set(signals.FAMILIES) - {"r_lang"})
    capsys.readouterr()


def test_ablate_requires_a_source(capsys):
    assert run(["ablate", "--k", "1", "--j", "1"]) == 2
    assert "either --config or --synthetic" in capsys.readouterr().err


def test_unknown_signal_family_fails(capsys, tmp_path):
    rc = run(["ablate", "--synthetic", "--days", "35", "--coins", "1",
              "--k", "1", "--j", "1", "--signals", "bogus",
              "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown signal families" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(capsys, tmp_path):
    assert run(["ingest", "--config", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COINSEER_SEED", "77")
    out = tmp_path / "seeded"
    assert run(["synth", "--out", str(out), "--days", "31", "--coins", "1"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 77

    explicit = tmp_path / "explicit"
    assert run(["synth", "--out", str(explicit), "--days", "31",
                "--coins", "1", "--seed", "5"]) == 0
    assert json.loads((explicit / "run_manifest.json").read_text())["seed"] == 5

    monkeypatch.setenv("COINSEER_SEED", "not-a-number")
    assert run(["synth", "--out", str(tmp_path / "bad"), "--days", "31",
                "--coins", "1"]) == 2
    capsys.readouterr()


def test_train_unknown_coin(tmp_path, capsys):
    src = synth_dir(tmp_path)
    rc = run(["train", "--config", str(src / "config.json"), "--coin", "nope",
              "--k", "1", "--j", "1", "--sizes", "4",
              "--out", str(tmp_path / "t")])
    assert rc == 2
    assert "unknown coin" in capsys.readouterr().err


def test_version_and_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "coinseer" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        run([])
    capsys.readouterr()
