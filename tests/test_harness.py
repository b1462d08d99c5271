"""Experiment grid, synthetic data generator, ranking, and report files."""

import hashlib
import json
import multiprocessing
from datetime import date, timedelta

import numpy as np
import numpy.testing as npt
import pytest

from coinseer import arima, dataset, lstm, signals, stats
from coinseer.harness import grid, synthetic
from coinseer.harness import report as harness_report
from coinseer.ingest import PriceSeries
from coinseer.metrics import MetricsReport
from coinseer.signals import bundled_lexicon
from oracles import recorded_with


def small_options(**overrides):
    base = dict(
        master_seed=3, k_max=2, j_max=2, sizes=(6,),
        train=lstm.TrainConfig(batch_size=8, max_epochs=4, patience=None), max_lag=2,
    )
    base.update(overrides)
    return grid.RunOptions(**base)


def fake_result(coin, kind, subset, j, rmspe, k=1):
    cfg = grid.ExperimentConfig(coin, kind, tuple(subset), 0 if kind == "arima" else k, j)
    report = MetricsReport(
        n=10, mape=rmspe * 0.8, mape_ci=0.3, maxape=rmspe * 2,
        mspe=rmspe**2, rmspe=rmspe, rmspe_ci=0.4, rmse=1.0,
    )
    return grid.ExperimentResult(cfg, report)


def test_signal_set_label():
    assert grid.signal_set_label(()) == "$"
    assert grid.signal_set_label(("r_lang",)) == "$+R_Lang"
    assert grid.signal_set_label(("gh_pop", "r_lang")) == "$+GH_Pop+R_Lang"


def test_config_id_and_validation():
    cfg = grid.ExperimentConfig("btc", "lstm", ("gh_pop", "r_vol"), 7, 2)
    assert grid.config_id(cfg) == "btc_lstm_gh_pop-r_vol_k7_j2"
    baseline = grid.ExperimentConfig("btc", "arima", (), 0, 1)
    assert grid.config_id(baseline) == "btc_arima_price_j1"
    with pytest.raises(ValueError):
        grid.ExperimentConfig("btc", "lstm", ("r_vol", "gh_pop"), 7, 2)
    with pytest.raises(ValueError):
        grid.ExperimentConfig("btc", "arima", ("r_vol",), 0, 1)
    with pytest.raises(ValueError):
        grid.ExperimentConfig("btc", "lstm", (), 0, 1)
    with pytest.raises(ValueError):
        grid.ExperimentConfig("btc", "hmm", (), 1, 1)


def test_derive_seed_is_stable_and_label_sensitive():
    a = grid.derive_seed(7, "init", "btc_lstm_k1_j1")
    assert a == grid.derive_seed(7, "init", "btc_lstm_k1_j1")
    assert a != grid.derive_seed(8, "init", "btc_lstm_k1_j1")
    assert a != grid.derive_seed(7, "train", "btc_lstm_k1_j1")
    assert 0 <= a < 2**64


def test_enumerate_grid_order_and_counts():
    configs = grid.enumerate_grid(
        ["a", "b"], k_range=[1, 2], j_range=[1],
        subsets=signals.family_powerset(["gh_pop", "r_vol"]),
    )
    per_coin = 1 + 4 * 2  # one arima j, four subsets x two k
    assert len(configs) == 2 * per_coin
    assert configs[0] == grid.ExperimentConfig("a", "arima", (), 0, 1)
    assert configs[1].signal_set == ()
    assert configs[3].signal_set == ("gh_pop",)
    subsets = [c.signal_set for c in configs[1:per_coin:2]]
    assert subsets == [(), ("gh_pop",), ("r_vol",), ("gh_pop", "r_vol")]
    assert all(c.coin == "a" for c in configs[:per_coin])

    explicit = grid.enumerate_grid(["a"], [1], [1, 3], subsets=[(), ("r_lang",)])
    assert [c.j for c in explicit if c.model_kind == "arima"] == [1, 3]
    assert len(explicit) == 2 + 2 * 2

    with pytest.raises(ValueError):
        grid.enumerate_grid(["a"], [1], [1], subsets=[("nope",)])
    with pytest.raises(ValueError):
        grid.enumerate_grid(["a"], [0], [1], subsets=[("gh_pop",)])
    with pytest.raises(ValueError):
        grid.enumerate_grid(["a"], [1], [1], subsets=[("gh_pop",), ("bogus",)])


def test_synthetic_coin_is_valid_and_deterministic():
    price, comments, events = synthetic.generate_synthetic_coin("alphacoin", 11, 90)
    assert len(price) == 90
    assert np.all(price.low > 0)
    assert np.all(price.high >= price.low)
    assert np.all((price.open >= price.low) & (price.open <= price.high))
    assert comments and events
    for rec in comments[:50]:
        assert rec.body
    price2, comments2, events2 = synthetic.generate_synthetic_coin("alphacoin", 11, 90)
    npt.assert_array_equal(price.high, price2.high)
    assert comments == comments2 and events == events2
    price3, _, _ = synthetic.generate_synthetic_coin("alphacoin", 12, 90)
    assert not np.array_equal(price.high, price3.high)
    with pytest.raises(ValueError):
        synthetic.generate_synthetic_coin("alphacoin", 1, 10)


def test_synthetic_popularity_tracks_price():
    wins = 0
    for seed in range(10):
        bundle = synthetic.synthetic_bundle(seed, days=150, names=("alphacoin",))
        cd = bundle.coins["alphacoin"]
        watch = cd.signals["gh_pop"].column("gh_watch")
        r, _ = stats.pearson(watch, cd.price.high)
        if r > 0.3:
            wins += 1
    assert wins >= 9


def test_assemble_coin_builds_all_families():
    bundle = synthetic.synthetic_bundle(5, days=60, names=("alphacoin", "betacoin"))
    assert set(bundle.coins) == {"alphacoin", "betacoin"}
    for cd in bundle.coins.values():
        assert set(cd.signals) == {
            "gh_pop", "gh_all", "r_vol", "r_lang", "r_score", "r_sent"
        }
        for matrix in cd.signals.values():
            assert matrix.dates == cd.price.dates
    assert bundle.coins["betacoin"].price.dates == bundle.coins["alphacoin"].price.dates


def test_run_grid_end_to_end_small():
    bundle = synthetic.synthetic_bundle(3, days=60, names=("alphacoin",))
    configs = grid.enumerate_grid(
        ["alphacoin"], [1], [1, 2], subsets=[(), ("gh_pop",)],
    )
    options = small_options()
    seen = []
    results = grid.run_grid(configs, bundle, options, jobs=1, progress=seen.append)
    assert len(results) == len(configs) == 6
    assert len(seen) == 6
    assert all(r.error is None for r in results)
    for r in results:
        assert r.metrics.n == len(r.predictions)
        for day, truth, pred in r.predictions:
            assert isinstance(day, date)
            assert truth > 0
    by_id = {grid.config_id(r.config): r for r in results}
    assert "alphacoin_arima_price_j1" in by_id
    # identical test anchors across every config at the same horizon
    for j in (1, 2):
        target_sets = {
            tuple(d for d, _, _ in r.predictions)
            for r in results if r.config.j == j
        }
        assert len(target_sets) == 1

    rows = grid.rank_models(results)
    assert len(rows) == 3
    assert [j for j, _ in rows[0].rmspe_by_j] == [1, 2]
    assert rows == sorted(rows, key=lambda r: (r.mean, r.label))


def test_run_grid_parallel_matches_serial():
    bundle = synthetic.synthetic_bundle(4, days=60, names=("alphacoin",))
    configs = grid.enumerate_grid(
        ["alphacoin"], [1], [1], subsets=[(), ("r_vol",)],
    )
    options = small_options()
    serial = grid.run_grid(configs, bundle, options, jobs=1)
    parallel = grid.run_grid(configs, bundle, options, jobs=3)
    assert [grid.config_id(r.config) for r in serial] == [
        grid.config_id(r.config) for r in parallel
    ]
    for a, b in zip(serial, parallel):
        assert a.predictions == b.predictions
        assert a.metrics.rmspe == b.metrics.rmspe


def test_run_grid_workers_fail_cells_like_serial_and_report_in_order():
    bundle = synthetic.synthetic_bundle(4, days=60, names=("alphacoin",))
    configs = grid.enumerate_grid(["alphacoin"], [1], [1, 2], subsets=[()])
    # a window past the run's k_max: its anchors lie outside the split
    configs.insert(2, grid.ExperimentConfig("alphacoin", "lstm", (), 54, 1))
    options = small_options()
    control = grid._openblas_thread_control()
    seen = []

    def progress(result):
        seen.append((result.config, control[0]() if control else None))

    serial = grid.run_grid(configs, bundle, options, jobs=1)
    parallel = grid.run_grid(configs, bundle, options, jobs=2, progress=progress)
    assert [r.error is not None for r in parallel] == [False, False, True, False, False]
    assert parallel == serial
    assert [cfg for cfg, _ in seen] == configs
    if control is not None:
        assert {threads for _, threads in seen} == {1}


def test_run_grid_propagates_unexpected_worker_errors(monkeypatch):
    bundle = synthetic.synthetic_bundle(4, days=60, names=("alphacoin",))
    configs = grid.enumerate_grid(["alphacoin"], [1], [1, 2], subsets=[()])
    real = grid.run_experiment

    def broken(cfg, bundle, options):
        if cfg == configs[1]:
            raise RuntimeError("worker bug")
        return real(cfg, bundle, options)

    monkeypatch.setattr(grid, "run_experiment", broken)
    with pytest.raises(RuntimeError, match="worker bug"):
        grid.run_grid(configs, bundle, small_options(), jobs=2)
    assert multiprocessing.active_children() == []


def test_run_experiment_reports_failure_instead_of_raising():
    bundle = synthetic.synthetic_bundle(6, days=60, names=("alphacoin",))
    cfg = grid.ExperimentConfig("alphacoin", "lstm", (), 54, 2)
    result = grid.run_experiment(cfg, bundle, small_options(k_max=54))
    assert result.metrics is None
    assert result.error


def test_train_lstm_experiment_norm_modes():
    # seed 8 puts the price peak after the training period, so the two
    # normalization modes fit different ranges
    bundle = synthetic.synthetic_bundle(8, days=60, names=("alphacoin",))
    cfg = grid.ExperimentConfig("alphacoin", "lstm", (), 2, 1)
    whole, whole_model = grid.train_lstm_experiment(cfg, bundle, small_options())
    causal, causal_model = grid.train_lstm_experiment(
        cfg, bundle, small_options(whole_series_norm=False)
    )
    assert whole.train_summary["out_of_range"] == 0
    assert causal.train_summary["out_of_range"] > 0
    assert whole_model.norm.maxs[0] > causal_model.norm.maxs[0]
    assert whole.predictions != causal.predictions
    # truths agree, only the forecasts move
    assert [d for d, _, _ in whole.predictions] == [d for d, _, _ in causal.predictions]
    assert [t for _, t, _ in whole.predictions] == [t for _, t, _ in causal.predictions]


@pytest.mark.parametrize("k", [1, 3])
def test_best_val_mse_is_the_returned_networks(monkeypatch, k):
    # training validates in float64, so the summary's best_val_mse is the
    # validation MSE of the network the experiment returns: bitwise at
    # k > 1, within 1e-12 at k=1 (see tests/test_lstm.py)
    bundle = synthetic.synthetic_bundle(8, days=60, names=("alphacoin",))
    cfg = grid.ExperimentConfig("alphacoin", "lstm", ("r_vol",), k, 1)
    val_sets = []
    real_train = lstm.train

    def train(net, fit_set, val_set, config, *, norm):
        val_sets.append(val_set)
        return real_train(net, fit_set, val_set, config, norm=norm)

    monkeypatch.setattr(lstm, "train", train)
    result, model = grid.train_lstm_experiment(cfg, bundle, small_options(k_max=3, sizes=(4, 6)))
    (val,) = val_sets
    preds, _ = lstm.forward_batch(model.network, val.inputs)
    resid = preds - val.targets
    mse = float(resid @ resid) / resid.size
    if k == 1:
        npt.assert_allclose(mse, result.train_summary["best_val_mse"], rtol=1e-12, atol=0)
    else:
        assert mse == result.train_summary["best_val_mse"]


def test_both_model_kinds_fit_on_the_rows_seen_in_training(monkeypatch):
    # with a strictly rising price the fitted maximum sits on the last row
    # read, so reading one row more or one fewer changes norm.maxs
    synth = synthetic.synthetic_bundle(3, days=60, names=("alphacoin",)).coins["alphacoin"]
    n = len(synth.price.dates)
    high = 100.0 + np.cumsum(np.random.default_rng(1).uniform(0.5, 1.5, n))
    price = PriceSeries("alphacoin", synth.price.dates, high, high, high, high)
    bundle = grid.DataBundle({"alphacoin": grid.CoinData(price, synth.signals)})
    matrix = signals.concat_signals([signals.price_high_signal(price), synth.signals["r_vol"]])
    options = small_options(j_max=3, whole_series_norm=False)
    train, _ = dataset.split_protocol(n, options.k_max, options.j_max, options.train_frac)
    lengths = []
    select_lag = arima.select_lag

    def spy(y, *args):
        lengths.append(len(y))
        return select_lag(y, *args)

    monkeypatch.setattr(arima, "select_lag", spy)
    for j in (1, 2, 3):
        n_seen = train[-1] + j + 1  # rows through the last train target
        baseline = grid.ExperimentConfig("alphacoin", "arima", (), 0, j)
        assert grid.run_experiment(baseline, bundle, options).error is None
        assert lengths == [n_seen]
        lengths.clear()
        cfg = grid.ExperimentConfig("alphacoin", "lstm", ("r_vol",), 1, j)
        _, model = grid.train_lstm_experiment(cfg, bundle, options)
        npt.assert_array_equal(model.norm.mins, matrix.values[:n_seen].min(axis=0))
        npt.assert_array_equal(model.norm.maxs, matrix.values[:n_seen].max(axis=0))
        assert model.norm.maxs[0] == high[n_seen - 1]


def test_rank_models_matches_hand_average():
    results = [
        fake_result("a", "arima", (), 1, 4.0),
        fake_result("b", "arima", (), 1, 6.0),
        fake_result("a", "arima", (), 2, 8.0),
        fake_result("b", "arima", (), 2, 10.0),
        fake_result("a", "lstm", ("r_vol",), 1, 3.0),
        fake_result("b", "lstm", ("r_vol",), 1, 5.0),
        fake_result("a", "lstm", ("r_vol",), 2, 7.0),
        fake_result("b", "lstm", ("r_vol",), 2, 9.0),
    ]
    rows = grid.rank_models(results)
    assert [r.label for r in rows] == ["LSTM $+R_Vol", "ARIMA $"]
    npt.assert_allclose(rows[0].rmspe_by_j, [(1, 4.0), (2, 8.0)])
    npt.assert_allclose(rows[0].mean, 6.0)
    npt.assert_allclose(rows[1].mean, 7.0)

    with pytest.raises(ValueError, match="inconsistent horizon"):
        grid.rank_models(results[:5])
    with pytest.raises(ValueError, match="no successful"):
        grid.rank_models(
            [grid.ExperimentResult(results[0].config, None, (), {}, "boom")]
        )


def test_results_json_round_trip(tmp_path):
    bundle = synthetic.synthetic_bundle(2, days=60, names=("alphacoin",))
    configs = grid.enumerate_grid(["alphacoin"], [1], [1], subsets=[()])
    results = grid.run_grid(configs, bundle, small_options())
    path = tmp_path / "results.json"
    harness_report.save_results(str(path), results)
    loaded = harness_report.load_results(str(path))
    assert len(loaded) == len(results)
    for a, b in zip(results, loaded):
        assert a.config == b.config
        assert a.predictions == b.predictions
        assert a.error == b.error
        assert a.metrics.rmspe == b.metrics.rmspe
        assert a.train_summary == b.train_summary


def test_emit_report_writes_deterministic_files(tmp_path):
    bundle = synthetic.synthetic_bundle(2, days=60, names=("alphacoin",))
    configs = grid.enumerate_grid(
        ["alphacoin"], [1], [1], subsets=[(), ("gh_pop",)],
    )
    results = grid.run_grid(configs, bundle, small_options())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    paths = harness_report.emit_report(results, str(out_a))
    harness_report.emit_report(results, str(out_b))
    names = sorted(p.split("/")[-1] for p in paths)
    assert "ranking.csv" in names and "metrics.csv" in names and "report.txt" in names
    assert any(n.startswith("predictions_") for n in names)
    assert any(n.startswith("plot_") and n.endswith(".svg") for n in names)
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    ranking = (out_a / "ranking.csv").read_text().splitlines()
    assert ranking[0] == "model,signals,rmspe_j1,mean"
    assert len(ranking) == 4  # header + arima + two lstm variants
    metrics_lines = (out_a / "metrics.csv").read_text().splitlines()
    assert len(metrics_lines) == 4
    svg = next(n for n in names if n.endswith(".svg"))
    text = (out_a / svg).read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    with pytest.raises(ValueError, match="nothing to report"):
        harness_report.emit_report([], str(tmp_path / "c"))


def golden_results():
    """Fixed results built by hand, so the report bytes depend on no
    training and no BLAS: ARIMA and LSTM over two horizons, a single
    prediction, a flat series and two failures."""
    start = date(2020, 3, 1)

    def rows(truth, preds, offset=0):
        return tuple(
            (start + timedelta(days=offset + i), t, p) for i, (t, p) in enumerate(zip(truth, preds))
        )

    def report(n, rmspe):
        return MetricsReport(
            n=n, mape=rmspe * 0.8, mape_ci=0.1 + 0.2, maxape=rmspe * 2.5,
            mspe=rmspe**2, rmspe=rmspe, rmspe_ci=1 / 3, rmse=rmspe * 101.25,
        )

    truth = [101.5, 103.25, 99.875, 104.0, 108.125, 106.5, 111.0]
    arima_summary = {"lag": 2, "intercept": 0.125, "ar_coeffs": [0.5, -0.25]}
    lstm_summary = {"epochs": 4, "best_epoch": 2, "best_val_mse": 0.0123, "out_of_range": 1}
    cfg = grid.ExperimentConfig
    return [
        grid.ExperimentResult(
            cfg("alpha", "arima", (), 0, 1), report(7, 4.25),
            rows(truth, [t * 1.01 for t in truth]), arima_summary,
        ),
        grid.ExperimentResult(
            cfg("alpha", "arima", (), 0, 2), report(6, 6.5),
            rows(truth[1:], [t * 0.97 for t in truth[1:]], 1), arima_summary,
        ),
        grid.ExperimentResult(
            cfg("alpha", "lstm", ("r_vol",), 2, 1), report(7, 3.125),
            rows(truth, [t + 0.5 for t in truth]), lstm_summary,
        ),
        grid.ExperimentResult(
            cfg("alpha", "lstm", ("r_vol",), 2, 2), report(1, 2.0),
            rows([120.0], [117.6], 6), lstm_summary,
        ),
        grid.ExperimentResult(
            cfg("beta", "lstm", (), 1, 1), report(4, 0.0), rows([50.0] * 4, [50.0] * 4), {},
        ),
        grid.ExperimentResult(
            cfg("beta", "lstm", (), 1, 2), report(3, 9.75),
            rows(truth[:3], [t * 1.1 for t in truth[:3]], 1), lstm_summary,
        ),
        grid.ExperimentResult(
            cfg("beta", "lstm", ("gh_pop",), 1, 1), None, error="non-finite gradient",
        ),
        grid.ExperimentResult(cfg("beta", "arima", (), 0, 2), None),
    ]


# sha256 of every file that emit_report and save_results write for
# golden_results(), in emit_report's order; results.json comes last.
# These files hold no trained value, so no BLAS product reaches them;
# REPORT_SHA256_BLAS_CORE names the OpenBLAS kernel set
# (oracles.blas_core_name) that they were recorded with all the same.
REPORT_SHA256_BLAS_CORE = "SkylakeX"
GOLDEN_REPORT_SHA256 = {
    "ranking.csv": "8a984a37d4a68483d7c6524384856b15d8e0e48ba526a622a84ad458338b384f",
    "metrics.csv": "ece0f96c047fdf87f083d3e48ddad48c5067db3422a3fd27d87696537ef2445e",
    "report.txt": "c3dca289216c3929576be68211d80347cb1ebc244e2ee612d43380fb959da098",
    "predictions_alpha_arima_price_j1.csv":
        "022c9776979a8fe9eaa3aa20376aac524d632697c5f93cb90ef20d89ee5880d9",
    "plot_alpha_arima_price_j1.svg":
        "08153aab7f3765e592a5258175b72db0baa835fde6fef9f3d9d765c343b6a3da",
    "predictions_alpha_arima_price_j2.csv":
        "bb67a7623082b2273880e86b04e619c24da635b4b1eef2222f858248ec6429fc",
    "plot_alpha_arima_price_j2.svg":
        "a5a07e9d760bc89938e27094a72c171a21dbe070536188da7674bdb798a84649",
    "predictions_alpha_lstm_r_vol_k2_j1.csv":
        "6411f8fff0ff89ee10c0f5097b90b4b74220bae84c9de8a3162e219a828e811f",
    "plot_alpha_lstm_r_vol_k2_j1.svg":
        "00da399685a30f4caa1a75931f6e9c6bbbd186bc1353a6ec061e170cc29714e6",
    "predictions_alpha_lstm_r_vol_k2_j2.csv":
        "89a12373ce5275188444a479ed2f61225161123f9d1a02f1b013728328af5530",
    "plot_alpha_lstm_r_vol_k2_j2.svg":
        "a9c9ce6076d32a7402cd3a60a63b2128b577a0ca2abee0a4c2ebe291f184b412",
    "predictions_beta_lstm_price_k1_j1.csv":
        "629cd590e5ccceebbd40e7a59aba0c8950c92bc77992011528ee475877344a93",
    "plot_beta_lstm_price_k1_j1.svg":
        "1c7cc52839b8da0ce0971982d26d063ed33e031ae08453cc7b1295c84e4c495b",
    "predictions_beta_lstm_price_k1_j2.csv":
        "6de8c58484e12d0ddbbba58f197b65c9e3021a6bbaf6f688c268af16ca128339",
    "plot_beta_lstm_price_k1_j2.svg":
        "41f32d001c384de6583447481c772e6013c3f7b7415de57040f2512bc4e13a9e",
    "results.json": "bbf1904fefe5520eb424096a4113cf6c826c935def562508ca5bc28c80babb58",
}


def test_report_bytes_match_recorded_digests(tmp_path):
    results = golden_results()
    written = harness_report.emit_report(results, str(tmp_path / "out"))
    path = tmp_path / "out" / "results.json"
    harness_report.save_results(str(path), results)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in [tmp_path / "out" / w.split("/")[-1] for w in written] + [path]
    }
    assert [w.split("/")[-1] for w in written] == list(GOLDEN_REPORT_SHA256)[:-1]
    assert digests == GOLDEN_REPORT_SHA256, recorded_with(REPORT_SHA256_BLAS_CORE)

    loaded = harness_report.load_results(str(path))
    harness_report.save_results(str(tmp_path / "again.json"), loaded)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    rewritten = harness_report.emit_report(loaded, str(tmp_path / "re"))
    for w in rewritten:
        name = w.split("/")[-1]
        assert hashlib.sha256((tmp_path / "re" / name).read_bytes()).hexdigest() == digests[name]


def test_failed_result_row_in_metrics_csv(tmp_path):
    good = fake_result("a", "arima", (), 1, 4.0)
    bad = grid.ExperimentResult(
        grid.ExperimentConfig("a", "lstm", (), 3, 1), None, (), {}, "exploded"
    )
    harness_report.save_results(str(tmp_path / "r.json"), [good, bad])
    loaded = harness_report.load_results(str(tmp_path / "r.json"))
    assert loaded[1].error == "exploded"
    assert loaded[1].metrics is None
    from coinseer.harness.report import write_metrics_csv

    write_metrics_csv(str(tmp_path / "m.csv"), loaded)
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[2].endswith("exploded")
