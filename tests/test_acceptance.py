"""Acceptance gate: nine checks covering the numeric oracles, the
learning stack, the experiment pipeline, benchmark ordering, and
bitwise determinism. Each check prints one PASS/FAIL line on the
real stdout so the verdict survives output capture."""

import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from datetime import date, timedelta

import numpy as np
from scipy import stats as sps

from coinseer import arima, cli, dataset, ingest, lstm, metrics, signals, stats
from coinseer.harness import grid, synthetic
from coinseer.harness import report as harness_report
from coinseer.ingest import daily_calendar
from coinseer.signals import SignalMatrix
from oracles import day_of, loss_and_grads


@contextmanager
def verdict(num, text, capfd):
    """Prints one PASS/FAIL line per criterion past pytest's capture."""
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"FAIL {num}/9 {text}", flush=True)
        raise
    elapsed = time.monotonic() - start
    with capfd.disabled():
        print(f"PASS {num}/9 {text} ({elapsed:.1f}s)", flush=True)


def brute_distance_correlation(x, y):
    n = len(x)
    a = np.abs(np.subtract.outer(np.asarray(x, float), np.asarray(x, float)))
    b = np.abs(np.subtract.outer(np.asarray(y, float), np.asarray(y, float)))
    big = []
    for m in (a, b):
        centered = np.empty_like(m)
        for k in range(n):
            for l in range(n):
                centered[k, l] = m[k, l] - m[k].mean() - m[:, l].mean() + m.mean()
        big.append(centered)
    dcov2 = (big[0] * big[1]).sum() / n**2
    dvarx = (big[0] ** 2).sum() / n**2
    dvary = (big[1] ** 2).sum() / n**2
    if dvarx * dvary == 0:
        return 0.0
    return float(np.sqrt(max(0.0, dcov2) / np.sqrt(dvarx * dvary)))


def test_correlation_statistics_match_oracles(capfd):
    with verdict(1, "correlation statistics match independent oracles under 5s", capfd):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        worst_d = 0.0
        for _ in range(200):
            x = rng.normal(size=10)
            y = rng.normal(size=10) + rng.uniform(-1, 1) * x
            got = stats.distance_correlation(x, y)
            worst_d = max(worst_d, abs(got - brute_distance_correlation(x, y)))
        assert worst_d <= 1e-10, f"distance correlation off by {worst_d}"

        worst_r = 0.0
        worst_p = 0.0
        for _ in range(300):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + rng.uniform(-2, 2) * x
            r, p = stats.pearson(x, y)
            want = sps.pearsonr(x, y)
            worst_r = max(worst_r, abs(r - want.statistic))
            worst_p = max(worst_p, abs(p - want.pvalue))
        assert worst_r <= 1e-12, f"pearson r off by {worst_r}"
        assert worst_p <= 1e-8, f"pearson p off by {worst_p}"
        assert time.monotonic() - start < 5.0


def test_baseline_matches_least_squares_oracle(capfd):
    with verdict(2, "differenced AR baseline matches least squares under 5s", capfd):
        start = time.monotonic()
        rng = np.random.default_rng(202)
        for _ in range(100):
            p = int(rng.integers(0, 5))
            n = int(rng.integers(p + 10, 80))
            y = np.cumsum(rng.normal(0.1, 1.0, size=n)) + 100.0
            model = arima.fit(y, p)
            dy = np.diff(y)
            rows = dy.size - p
            design = np.ones((rows, p + 1))
            for lag in range(1, p + 1):
                design[:, lag] = dy[p - lag : p - lag + rows]
            beta, *_ = np.linalg.lstsq(design, dy[p:], rcond=None)
            got = np.concatenate([[model.intercept], model.ar_coeffs])
            assert np.allclose(got, beta, atol=1e-8, rtol=1e-8)

        for p in (0, 1, 3):
            y = np.cumsum(rng.normal(0.2, 1.0, size=90)) + 150.0
            base = arima.forecast(arima.fit(y, p), y, 3)
            for a, b in ((3.0, 0.0), (1.0, 25.0), (0.5, -4.0)):
                z = a * y + b
                scaled = arima.forecast(arima.fit(z, p), z, 3)
                assert abs(scaled - (a * base + b)) <= 1e-9 * max(1.0, abs(a * base + b))
        assert time.monotonic() - start < 5.0


def test_gradients_match_finite_differences(capfd):
    with verdict(3, "analytic LSTM gradients match finite differences under 30s", capfd):
        start = time.monotonic()
        rng = np.random.default_rng(303)
        worst = 0.0
        for trial in range(20):
            input_dim = int(rng.integers(1, 5))
            if trial % 2 == 0:
                sizes = (int(rng.integers(2, 5)),)
            else:
                sizes = (int(rng.integers(2, 5)), int(rng.integers(2, 7)))
            k = int(rng.integers(2, 6))
            batch = int(rng.integers(2, 4))
            net = lstm.init_network(input_dim, sizes, seed=int(rng.integers(10000)))
            windows = rng.normal(size=(batch, k, input_dim))
            targets = rng.normal(size=batch)
            _, grads = loss_and_grads(net, windows, targets)
            eps = 1e-6
            for key, param in net.params.items():
                flat = param.reshape(-1)
                numeric = np.zeros(flat.size)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up, _ = loss_and_grads(net, windows, targets)
                    flat[i] = orig - eps
                    down, _ = loss_and_grads(net, windows, targets)
                    flat[i] = orig
                    numeric[i] = (up - down) / (2 * eps)
                scale = max(float(np.abs(numeric).max()), 1e-8)
                rel = float(np.abs(grads[key].reshape(-1) - numeric).max()) / scale
                worst = max(worst, rel)
        assert worst < 1e-4, f"worst relative gradient error {worst}"
        assert time.monotonic() - start < 30.0


def sine_task(n, k, h_offset=0.0):
    phase = np.linspace(0, 6 * np.pi, n + k + 1)
    wave = 0.5 + 0.4 * np.sin(phase + h_offset)
    inputs = np.stack([wave[i : i + k, None] for i in range(n)])
    targets = wave[np.arange(n) + k]
    days = tuple(date(2021, 1, 1) + timedelta(days=i) for i in range(n))
    return dataset.WindowedDataset(
        inputs=inputs, targets=targets, anchor_dates=days, k=k, j=1,
        feature_names=("f0",),
    )


def test_training_converges_and_stops_early(capfd):
    with verdict(4, "training reaches MSE < 1e-3 and early stopping follows the rule under 60s", capfd):
        start = time.monotonic()
        ds = sine_task(50, 4)
        net = lstm.init_network(1, (8,), seed=404)
        norm = dataset.NormParams(columns=("f0",), mins=np.zeros(1), maxs=np.ones(1))
        config = lstm.TrainConfig(seed=404, batch_size=8, learning_rate=0.02,
                                  max_epochs=500, patience=None)
        model = lstm.train(net, ds, ds, config, norm=norm)
        best = min(s.train_mse for s in model.history)
        assert best < 1e-3, f"train MSE only reached {best}"
        assert len(model.history) <= 500

        stopper = lstm.EarlyStopper(patience=2)
        improvements = [stopper.update(v) for v in (0.5, 0.4, 0.45, 0.46)]
        assert improvements == [True, True, False, False]
        assert stopper.should_stop
        assert stopper.epoch == 4
        assert stopper.best_epoch == 2

        # the returned network carries the best epoch's weights
        val_preds, _ = lstm.forward_batch(model.network, ds.inputs)
        restored = float(((val_preds - ds.targets) ** 2).mean())
        assert abs(restored - min(s.val_mse for s in model.history)) < 1e-12
        assert time.monotonic() - start < 60.0


def test_windowing_and_normalization_laws(capfd):
    with verdict(5, "windowing counts, target alignment, and scaling laws hold", capfd):
        rng = np.random.default_rng(505)
        for n, k, j in ((30, 5, 2), (12, 1, 1), (40, 14, 3), (25, 3, 3)):
            cal = daily_calendar(date(2021, 1, 1), date(2021, 1, 1) + timedelta(days=n - 1))
            values = rng.uniform(10, 90, size=(n, 2))
            matrix = SignalMatrix(cal, ("price_high", "aux"), values)
            y = values[:, 0]
            ds = dataset.make_windows(matrix, y, k, j)
            assert len(ds) == n - k - j + 1
            for s, anchor in enumerate(ds.anchor_dates):
                i = cal.index(anchor)
                assert np.array_equal(ds.inputs[s], values[i - k + 1 : i + 1])
                assert ds.targets[s] == y[i + j]

            params = dataset.fit_minmax(matrix)
            scaled, out_of_range = dataset.apply_minmax(matrix, params)
            assert out_of_range == 0
            assert scaled.values.min() >= 0.0 and scaled.values.max() <= 1.0
            back = dataset.invert_minmax(scaled.column("price_high"), "price_high", params)
            assert np.abs(back - y).max() <= 1e-9

        n, k_max, j_max = 60, 14, 3
        cal = daily_calendar(date(2021, 1, 1), date(2021, 1, 1) + timedelta(days=n - 1))
        train_rows, test_rows = dataset.split_protocol(n, k_max, j_max, 0.8)
        count = n - k_max - j_max + 1
        n_train = math.floor(0.8 * count)
        matrix = SignalMatrix(cal, ("price_high",), rng.uniform(1, 2, size=(n, 1)))
        for k in (1, 5, 14):
            for j in (1, 2, 3):
                ds = dataset.make_windows(matrix, matrix.values[:, 0], k, j)
                train = dataset.subset_by_anchor(ds, train_rows)
                test = dataset.subset_by_anchor(ds, test_rows)
                assert train_rows[0] == k_max - 1
                assert train.anchor_dates[0] == cal[train_rows[0]] == cal[k_max - 1]
                assert train.anchor_dates[-1] == cal[train_rows[-1]]
                assert test.anchor_dates[0] == cal[test_rows[0]]
                assert len(train) == n_train
                assert set(train.anchor_dates).isdisjoint(test.anchor_dates)
                if (k, j) == (k_max, j_max):
                    assert len(train) + len(test) == count


def test_signal_extraction_invariants(tmp_path, capfd):
    with verdict(6, "signal families obey their construction invariants", capfd):
        assert signals.quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)

        src = tmp_path / "arch"
        assert cli.main(["synth", "--out", str(src), "--days", "45",
                        "--coins", "1", "--seed", "21"]) == 0
        bundle, _ = cli.build_bundle(cli.load_config(str(src / "config.json")), signals.FAMILIES)
        cd = bundle.coins["alphacoin"]

        lang = cd.signals["r_lang"].values
        assert lang.min() >= 0.0
        sums = lang.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))

        for family in ("gh_pop", "gh_all", "r_vol"):
            counts = cd.signals[family].values
            assert counts.min() >= 0.0
            assert np.array_equal(counts, np.round(counts))
        cfg = cli.load_config(str(src / "config.json"))
        brute = {}
        for rec in ingest.load_github_events(cfg.coins[0].github_ndjson, cfg.coins[0].repo):
            if rec.event_type == "Watch":
                brute[day_of(rec.created_utc)] = (
                    brute.get(day_of(rec.created_utc), 0) + 1
                )
        watch = cd.signals["gh_pop"].column("gh_watch")
        for i, day in enumerate(cd.price.dates):
            assert watch[i] == brute.get(day, 0)

        # shuffling archive lines must not change any extracted signal
        shuffled = tmp_path / "shuffled"
        shutil.copytree(src, shuffled)
        rng = np.random.default_rng(1)
        for name in ("reddit_alphacoin.ndjson", "github_alphacoin.ndjson"):
            lines = (shuffled / name).read_text().splitlines()
            order = rng.permutation(len(lines))
            (shuffled / name).write_text("\n".join(lines[i] for i in order) + "\n")
        bundle2, _ = cli.build_bundle(cli.load_config(str(shuffled / "config.json")), signals.FAMILIES)
        cd2 = bundle2.coins["alphacoin"]
        for family in cd.signals:
            assert cd.signals[family].columns == cd2.signals[family].columns
            assert np.array_equal(cd.signals[family].values, cd2.signals[family].values)


PINNED_ABLATION = ["ablate", "--synthetic", "--days", "600",
                   "--k", "1", "--j", "1..3", "--seed", "7"]


def run_cli(argv, timeout):
    exe = shutil.which("coinseer")
    cmd = [exe] + argv if exe else [sys.executable, "-m", "coinseer.cli"] + argv
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)


def load_results_grouped(path):
    results = harness_report.load_results(str(path))
    assert all(r.error is None for r in results)
    return results


def test_full_ablation_run_is_complete_and_reproducible(tmp_path, capfd):
    with verdict(7, "pinned ablation finishes under 10min with coherent, repeatable output", capfd):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            start = time.monotonic()
            proc = run_cli(PINNED_ABLATION + ["--out", str(out)], timeout=600)
            elapsed = time.monotonic() - start
            assert proc.returncode == 0, proc.stderr[-2000:]
            assert elapsed < 600.0, f"run took {elapsed:.0f}s"

        names = sorted(p.name for p in out1.iterdir())
        for fixed in ("ranking.csv", "metrics.csv", "report.txt",
                      "results.json", "run_manifest.json"):
            assert fixed in names
        preds = [n for n in names if n.startswith("predictions_")]
        plots = [n for n in names if n.endswith(".svg")]
        # 2 coins x (3 arima + 4 subsets x 3 horizons) experiments
        assert len(preds) == 30 and len(plots) == 30
        assert len(names) == 65

        results = load_results_grouped(out1 / "results.json")
        assert len(results) == 30
        by_coin_j = {}
        for r in results:
            key = (r.config.coin, r.config.j)
            by_coin_j.setdefault(key, set()).add(tuple(d for d, _, _ in r.predictions))
        for key, date_tuples in by_coin_j.items():
            assert len(date_tuples) == 1, f"mixed test dates for {key}"
        for coin in ("alphacoin", "betacoin"):
            anchor_sets = []
            for j in (1, 2, 3):
                (dates,) = by_coin_j[(coin, j)]
                anchor_sets.append(tuple(d - timedelta(days=j) for d in dates))
            assert anchor_sets[0] == anchor_sets[1] == anchor_sets[2]

        ranking = (out1 / "ranking.csv").read_text().splitlines()
        assert ranking[0] == "model,signals,rmspe_j1,rmspe_j2,rmspe_j3,mean"
        assert len(ranking) == 6  # five model variants plus header
        for line in ranking[1:]:
            cells = line.split(",")
            r1, r2, r3 = (float(v) for v in cells[2:5])
            assert r1 <= r2 <= r3, f"horizon errors not monotone: {line}"

        names2 = sorted(p.name for p in out2.iterdir())
        assert names == names2
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# Frozen three-coin benchmark: per-coin RMSPE of five model variants at
# horizons 1-3, and the rounded per-horizon and overall means their
# ranking must reproduce.
BENCHMARK_RMSPE = {
    ("arima", ()): {
        1: (4.82539628, 8.28904415, 8.78408914),
        2: (7.18357059, 12.05217423, 12.43960961),
        3: (8.85391785, 14.81149176, 15.63702338),
    },
    ("lstm", ()): {
        1: (4.34636896, 7.08058379, 8.38611905),
        2: (6.60728627, 12.77955532, 11.9911668),
        3: (8.08250628, 13.7895075, 15.07332004),
    },
    ("lstm", ("r_lang",)): {
        1: (4.44682278, 7.15671896, 8.4902619),
        2: (6.90384928, 10.61290306, 12.11775194),
        3: (8.12283378, 12.95530973, 15.10362711),
    },
    ("lstm", ("gh_pop", "r_lang")): {
        1: (4.43876244, 7.10028362, 8.38301515),
        2: (6.89482329, 11.10741867, 11.95477542),
        3: (8.12663093, 12.91778441, 16.16128854),
    },
    ("lstm", ("r_vol",)): {
        1: (4.52, 7.44, 8.38),
        2: (6.59, 11.34, 12.02),
        3: (8.13, 13.84, 15.46),
    },
}

EXPECTED_RANKING = [
    ("LSTM $+R_Lang", 9.55, (6.70, 9.88, 12.06)),
    ("LSTM $+GH_Pop+R_Lang", 9.68, (6.64, 9.99, 12.40)),
    ("LSTM $+R_Vol", 9.75, (6.78, 9.98, 12.48)),
    ("LSTM $", 9.79, (6.60, 10.46, 12.32)),
    ("ARIMA $", 10.32, (7.30, 10.56, 13.10)),
]


def benchmark_results():
    results = []
    for (kind, subset), by_j in BENCHMARK_RMSPE.items():
        for j, values in by_j.items():
            for coin, rmspe in zip(("btc", "eth", "xmr"), values):
                cfg = grid.ExperimentConfig(
                    coin, kind, subset, 0 if kind == "arima" else 1, j
                )
                report = metrics.MetricsReport(
                    n=30, mape=rmspe * 0.7, mape_ci=1.0, maxape=rmspe * 4,
                    mspe=rmspe**2, rmspe=rmspe, rmspe_ci=3.0, rmse=1.0,
                )
                results.append(grid.ExperimentResult(cfg, report))
    return results


def test_benchmark_ranking_reproduces_reference_order(capfd):
    with verdict(8, "ranking reproduces the frozen benchmark order and means", capfd):
        rows = grid.rank_models(benchmark_results())
        assert [r.label for r in rows] == [label for label, _, _ in EXPECTED_RANKING]
        assert rows[0].label == "LSTM $+R_Lang"
        for row, (label, mean, per_j) in zip(rows, EXPECTED_RANKING):
            assert round(row.mean, 2) == mean, f"{label}: {row.mean}"
            got = tuple(round(v, 2) for _, v in row.rmspe_by_j)
            assert got == per_j, f"{label}: {got} != {per_j}"


def test_everything_is_bitwise_deterministic(tmp_path, capfd):
    with verdict(9, "repeated runs are bitwise identical, including parallel ones", capfd):
        bundle = synthetic.synthetic_bundle(12, days=60, names=("alphacoin",))
        configs = grid.enumerate_grid(
            ["alphacoin"], [1, 2], [1], subsets=[(), ("gh_pop",)],
        )
        options = grid.RunOptions(
            master_seed=12, k_max=2, j_max=1, sizes=(5,), batch_size=8,
            max_epochs=3, patience=None, max_lag=2,
        )
        first = grid.run_grid(configs, bundle, options, jobs=1)
        second = grid.run_grid(configs, bundle, options, jobs=1)
        parallel = grid.run_grid(configs, bundle, options, jobs=4)
        for other in (second, parallel):
            assert len(other) == len(first)
            for a, b in zip(first, other):
                assert a.config == b.config
                assert a.predictions == b.predictions
                assert a.metrics == b.metrics

        cfg = configs[1]
        assert cfg.model_kind == "lstm"
        _, model_a = grid.train_lstm_experiment(cfg, bundle, options)
        _, model_b = grid.train_lstm_experiment(cfg, bundle, options)
        path_a = tmp_path / "a.bin"
        path_b = tmp_path / "b.bin"
        lstm.save_model(str(path_a), model_a)
        lstm.save_model(str(path_b), model_b)
        assert path_a.read_bytes() == path_b.read_bytes()

        other_seed = grid.RunOptions(
            master_seed=13, k_max=2, j_max=1, sizes=(5,), batch_size=8,
            max_epochs=3, patience=None, max_lag=2,
        )
        _, model_c = grid.train_lstm_experiment(cfg, bundle, other_seed)
        path_c = tmp_path / "c.bin"
        lstm.save_model(str(path_c), model_c)
        assert path_c.read_bytes() != path_a.read_bytes()
