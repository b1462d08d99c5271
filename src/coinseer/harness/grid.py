"""Experiment grid enumeration and execution over a shared data bundle."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
from dataclasses import dataclass, field, replace
from datetime import date
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .. import arima, dataset, lstm, metrics, signals
from ..ingest import CommentRecord, EventRecord, PriceSeries
from ..signals import PRICE_COLUMN, SentimentLexicon, SignalMatrix, Vocabulary

log = logging.getLogger(__name__)

#: The LSTM signal subsets compared in the headline ranking.
BENCHMARK_SUBSETS: tuple[tuple[str, ...], ...] = (
    (),
    ("r_lang",),
    ("gh_pop", "r_lang"),
    ("r_vol",),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the ablation grid.

    Price history is always an input; signal_set names the extra signal
    families, empty for price-only. ARIMA configs carry no signal set
    and no input window (k is 0 there, ignored).
    """

    coin: str
    model_kind: str
    signal_set: tuple[str, ...]
    k: int
    j: int

    def __post_init__(self) -> None:
        if self.model_kind not in ("arima", "lstm"):
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if signals.parse_families(self.signal_set) != self.signal_set:
            raise ValueError("signal_set must be unique and in canonical order")
        if self.j < 1:
            raise ValueError("j must be positive")
        if self.model_kind == "arima":
            if self.signal_set:
                raise ValueError("the ARIMA baseline uses price only")
            if self.k != 0:
                raise ValueError("the ARIMA baseline has no input window")
        elif self.k < 1:
            raise ValueError("k must be positive")


def signal_set_label(signal_set: Sequence[str]) -> str:
    """Display label: $ for price-only, $+<family>... otherwise."""
    parts = ["$"] + [signals.FAMILIES[f].label for f in signal_set]
    return "+".join(parts)


def config_id(cfg: ExperimentConfig) -> str:
    """Filesystem-safe unique identifier of a config."""
    sig = "-".join(cfg.signal_set) if cfg.signal_set else "price"
    if cfg.model_kind == "arima":
        return f"{cfg.coin}_arima_{sig}_j{cfg.j}"
    return f"{cfg.coin}_lstm_{sig}_k{cfg.k}_j{cfg.j}"


def derive_seed(master_seed: int, *labels: str) -> int:
    """Stable per-purpose seed from the master seed and string labels."""
    digest = hashlib.sha256(
        ":".join([str(master_seed), *labels]).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def enumerate_grid(
    coins: Sequence[str],
    k_range: Sequence[int],
    j_range: Sequence[int],
    subsets: Sequence[Sequence[str]],
) -> list[ExperimentConfig]:
    """Every experiment of one run, in deterministic order.

    Per coin: the ARIMA baseline per j, then each LSTM signal subset, in
    the order given, crossed with k_range and j_range.
    """
    if not coins:
        raise ValueError("no coins")
    if not k_range or any(k < 1 for k in k_range):
        raise ValueError("k_range must be nonempty positive")
    if not j_range or any(j < 1 for j in j_range):
        raise ValueError("j_range must be nonempty positive")
    canonical = [signals.parse_families(subset) for subset in subsets]
    configs: list[ExperimentConfig] = []
    for coin in coins:
        for j in j_range:
            configs.append(ExperimentConfig(coin, "arima", (), 0, j))
        for subset in canonical:
            for k in k_range:
                for j in j_range:
                    configs.append(ExperimentConfig(coin, "lstm", subset, k, j))
    return configs


@dataclass
class CoinData:
    """Aligned price series and extracted signal families for one coin."""

    price: PriceSeries
    signals: dict[str, SignalMatrix]


@dataclass
class DataBundle:
    """Everything a grid run reads: per-coin data on one shared calendar."""

    coins: dict[str, CoinData]

    def __post_init__(self) -> None:
        if not self.coins:
            raise ValueError("empty bundle")
        calendars = {cd.price.dates for cd in self.coins.values()}
        if len(calendars) != 1:
            raise ValueError("coins must share one calendar")


def assemble_coin(
    price: PriceSeries,
    comments: Sequence[CommentRecord],
    events: Sequence[EventRecord],
    lexicon: SentimentLexicon,
    families: Collection[str] = signals.FAMILIES,
    vocab_size: int = signals.DEFAULT_VOCAB_SIZE,
    vocabulary: Vocabulary | None = None,
) -> CoinData:
    """Extract the signal ``families`` on the price calendar, as
    signals.extract_families does, logging a wanted r_lang left out."""
    extracted = signals.extract_families(
        families, price.dates, comments, events, lexicon, vocab_size, vocabulary
    )
    if "r_lang" in families and "r_lang" not in extracted:
        log.warning("%s: empty comment corpus, language signal unavailable", price.coin)
    return CoinData(price=price, signals=extracted)


@dataclass(frozen=True)
class RunOptions:
    """Knobs shared by every experiment of one run, checked on construction
    so that a bad value fails before any data is read. ``train`` holds the
    training settings; each LSTM experiment trains with it under its own
    seed, derived from ``master_seed``, so ``train.seed`` must keep its
    default."""

    master_seed: int = 0
    k_max: int = 14
    j_max: int = 3
    train_frac: float = 0.8
    sizes: tuple[int, ...] = (400, 800)
    train: lstm.TrainConfig = lstm.TrainConfig()
    max_lag: int = 5
    whole_series_norm: bool = True

    def __post_init__(self) -> None:
        if self.train.seed != lstm.TrainConfig.seed:
            raise ValueError("train.seed is unused: each experiment's seed comes from master_seed")
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError(f"train_frac must lie in (0, 1), got {self.train_frac}")
        if self.max_lag < 0:
            raise ValueError(f"max_lag must be nonnegative, got {self.max_lag}")
        if not self.sizes or any(h < 1 for h in self.sizes):
            raise ValueError("layer sizes must be positive")
        if self.k_max < 1 or self.j_max < 1:
            raise ValueError("k_max and j_max must be positive")


@dataclass
class ExperimentResult:
    """Outcome of one experiment: metrics on the shared test anchors,
    the per-date predictions, and a small training summary; failed
    experiments carry an error string instead."""

    config: ExperimentConfig
    metrics: metrics.MetricsReport | None
    predictions: tuple[tuple[date, float, float], ...] = ()
    train_summary: dict = field(default_factory=dict)
    error: str | None = None


def feature_matrix(cd: CoinData, signal_set: Sequence[str]) -> SignalMatrix:
    """The price high joined to the coin's families of ``signal_set``."""
    parts = [signals.price_high_signal(cd.price)]
    for family in signal_set:
        matrix = cd.signals.get(family)
        if matrix is None:
            raise ValueError(f"signal family {family!r} unavailable for {cd.price.coin}")
        parts.append(matrix)
    return signals.concat_signals(parts)


def _split(cfg: ExperimentConfig, cd: CoinData, options: RunOptions) -> tuple[range, range, int]:
    """The run's train and test anchor rows, and the last row a
    training-period forecaster has seen: the target of the last train
    anchor, j days past it."""
    train, test = dataset.split_protocol(
        len(cd.price.dates), options.k_max, options.j_max, options.train_frac
    )
    return train, test, train[-1] + cfg.j


def _scored(
    cfg: ExperimentConfig, cd: CoinData, anchors: range, preds: np.ndarray, summary: dict
) -> ExperimentResult:
    """Score forecasts made at ``anchors`` against the price high j days later."""
    days = slice(anchors.start + cfg.j, anchors.stop + cfg.j)
    truth = cd.price.high[days]
    rows = tuple((d, float(y), float(p)) for d, y, p in zip(cd.price.dates[days], truth, preds))
    return ExperimentResult(cfg, metrics.evaluate(preds, truth), rows, summary)


def train_lstm_experiment(
    cfg: ExperimentConfig, bundle: DataBundle, options: RunOptions
) -> tuple[ExperimentResult, lstm.TrainedModel]:
    """Train one LSTM config and score it on the shared test anchors."""
    if cfg.model_kind != "lstm":
        raise ValueError("not an LSTM config")
    cd = bundle.coins[cfg.coin]
    matrix = feature_matrix(cd, cfg.signal_set)
    train, test, seen = _split(cfg, cd, options)
    fit_rows = len(matrix.dates) if options.whole_series_norm else seen + 1
    norm = dataset.fit_minmax(
        SignalMatrix(matrix.dates[:fit_rows], matrix.columns, matrix.values[:fit_rows])
    )
    normed, out_of_range = dataset.apply_minmax(matrix, norm)
    windows = dataset.make_windows(normed, normed.column(PRICE_COLUMN), cfg.k, cfg.j)
    fit_ds, val_ds = dataset.validation_tail(dataset.subset_by_anchor(windows, train))
    test_ds = dataset.subset_by_anchor(windows, test)
    cid = config_id(cfg)
    net = lstm.init_network(
        input_dim=len(matrix.columns),
        sizes=options.sizes,
        seed=derive_seed(options.master_seed, "init", cid),
        k=cfg.k,
    )
    config = replace(options.train, seed=derive_seed(options.master_seed, "train", cid))
    model = lstm.train(net, fit_ds, val_ds, config, norm=norm)
    summary = {
        "epochs": len(model.history),
        "best_epoch": model.best_epoch,
        "best_val_mse": min(s.val_mse for s in model.history),
        "out_of_range": out_of_range,
    }
    return _scored(cfg, cd, test, lstm.predict(model, test_ds.inputs), summary), model


def _run_arima(
    cfg: ExperimentConfig, bundle: DataBundle, options: RunOptions
) -> ExperimentResult:
    cd = bundle.coins[cfg.coin]
    high = cd.price.high
    _, test, seen = _split(cfg, cd, options)
    y_train = high[: seen + 1]
    p = arima.select_lag(y_train, options.max_lag)
    try:
        model = arima.fit(y_train, p)
    except ArithmeticError:
        log.warning("%s: singular fit at lag %d, falling back to lag 0", cfg.coin, p)
        p = 0
        model = arima.fit(y_train, 0)
    preds = np.array([arima.forecast(model, high[: a + 1], cfg.j) for a in test])
    summary = {
        "lag": model.p,
        "intercept": model.intercept,
        "ar_coeffs": [float(c) for c in model.ar_coeffs],
    }
    return _scored(cfg, cd, test, preds, summary)


def run_experiment(
    cfg: ExperimentConfig, bundle: DataBundle, options: RunOptions
) -> ExperimentResult:
    """Run one grid cell end to end; failures become error results."""
    if cfg.coin not in bundle.coins:
        return ExperimentResult(cfg, None, error=f"unknown coin {cfg.coin!r}")
    try:
        if cfg.model_kind == "arima":
            return _run_arima(cfg, bundle, options)
        return train_lstm_experiment(cfg, bundle, options)[0]
    except (ValueError, ArithmeticError) as exc:
        return ExperimentResult(cfg, None, error=str(exc))


#: The (bundle, options) of the grid being run. run_grid sets it before
#: the pool forks, so workers inherit it and only configs and results
#: cross between processes.
_shared: tuple[DataBundle, RunOptions] | None = None


def _run_shared(cfg: ExperimentConfig) -> ExperimentResult:
    return run_experiment(cfg, *_shared)


@functools.cache
def _openblas_function(name: str) -> Callable | None:
    """OpenBLAS's C function ``name`` (e.g. ``get_num_threads``) in the
    library numpy loaded, under any of its export names, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            function = getattr(handle, f"{prefix}_{name}{suffix}", None)
            if function is not None:
                return function
    return None


@functools.cache
def _openblas_thread_control() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None (logged once) when none is found."""
    get, set_ = _openblas_function("get_num_threads"), _openblas_function("set_num_threads")
    if get is None or set_ is None:
        log.debug("no OpenBLAS thread control found; the grid runs at the default BLAS threads")
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread, then restore its count."""
    control = _openblas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def run_grid(
    configs: Sequence[ExperimentConfig],
    bundle: DataBundle,
    options: RunOptions,
    jobs: int = 1,
    progress: Callable[[ExperimentResult], None] | None = None,
) -> list[ExperimentResult]:
    """Run every config, preserving input order in the results.

    ``jobs=1`` runs the experiments one by one in the calling process;
    ``jobs=N`` runs them in min(N, len(configs)) worker processes forked
    from it, which inherit the bundle. Either way OpenBLAS runs at one
    thread for the whole grid, and its thread count is restored after.
    Experiments are independent (seeds derive from the master seed and
    the config identity) and the matrix products always run on one
    thread, so the results do not depend on ``jobs``, on the core count
    or on ``OPENBLAS_NUM_THREADS``. ``progress`` sees each result in
    config order, as soon as it and every earlier one are done.
    """
    global _shared
    if jobs < 1:
        raise ValueError("jobs must be positive")
    workers = min(jobs, len(configs))
    results = []
    _shared = (bundle, options)
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(_one_blas_thread())
            if workers > 1:
                # Imported here: it adds about 10 ms to the start of every command.
                import multiprocessing

                pool = stack.enter_context(multiprocessing.get_context("fork").Pool(workers))
                mapped = pool.imap(_run_shared, configs, chunksize=1)
            else:
                mapped = map(_run_shared, configs)
            for result in mapped:
                if progress is not None:
                    progress(result)
                results.append(result)
    finally:
        _shared = None
    return results


@dataclass(frozen=True)
class RankRow:
    """Cross-coin mean RMSPE per horizon for one model variant."""

    model_kind: str
    signal_set: tuple[str, ...]
    label: str
    rmspe_by_j: tuple[tuple[int, float], ...]
    mean: float


def rank_models(results: Iterable[ExperimentResult]) -> list[RankRow]:
    """Rank model variants by the mean of per-horizon mean RMSPE.

    Groups results by (model_kind, signal_set), averages RMSPE across
    coins (and window sizes, when several were run) per horizon, then
    orders ascending by the mean across horizons. Every variant must
    cover the same horizons.
    """
    cells: dict[tuple[str, tuple[str, ...]], dict[int, list[float]]] = {}
    for result in results:
        if result.metrics is None:
            continue
        key = (result.config.model_kind, result.config.signal_set)
        cells.setdefault(key, {}).setdefault(result.config.j, []).append(
            result.metrics.rmspe
        )
    if not cells:
        raise ValueError("no successful results to rank")
    horizon_sets = {tuple(sorted(by_j)) for by_j in cells.values()}
    if len(horizon_sets) != 1:
        raise ValueError("inconsistent horizon coverage across model variants")
    rows = []
    for (kind, subset), by_j in cells.items():
        means = tuple((j, float(np.mean(by_j[j]))) for j in sorted(by_j))
        label = ("LSTM " if kind == "lstm" else "ARIMA ") + signal_set_label(subset)
        rows.append(
            RankRow(
                model_kind=kind,
                signal_set=subset,
                label=label,
                rmspe_by_j=means,
                mean=float(np.mean([v for _, v in means])),
            )
        )
    rows.sort(key=lambda r: (r.mean, r.label))
    return rows
