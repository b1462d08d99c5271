"""Command line interface.

Subcommands: ingest, signals, correlate, train, forecast, ablate,
report, synth. Exit codes: 0 success, 1 partial experiment failures,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from datetime import date, timedelta
from typing import Collection

from . import __version__, ingest, lstm, signals, stats
from .dataset import apply_minmax
from .harness import grid as harness_grid
from .harness import report as harness_report
from .harness import synthetic as harness_synth

log = logging.getLogger(__name__)

_COIN_NAME_RE = re.compile(r"^[a-z0-9_]+$")
#: Characters JSON must write as an escape (\", \\, \n, ...). Ingest's
#: pre-filter does not look for those escapes, so a subreddit or repo name
#: that held one would never match; no real name holds one.
_ESCAPED_CHAR_RE = re.compile(r'["\\\x00-\x1f]')


@dataclass(frozen=True)
class CoinSpec:
    name: str
    price_csv: str
    reddit_ndjson: str
    subreddit: str
    github_ndjson: str
    repo: str


@dataclass(frozen=True)
class Config:
    coins: tuple[CoinSpec, ...]
    start: date | None
    end: date | None
    vocab_size: int
    lexicon: str | None
    path: str


def load_config(path: str) -> Config:
    """Read the JSON run configuration; relative paths resolve against
    the config file's directory. A file of the wrong shape raises a
    ValueError that names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("coins", []), list):
        raise ValueError(f"{path}: expected a JSON object with a list of coins")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    coins = []
    seen = set()
    for i, obj in enumerate(raw.get("coins", [])):
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: coin {i} must be a JSON object, got {obj!r}")
        for key in (f.name for f in fields(CoinSpec)):
            if key not in obj:
                raise ValueError(f"{path}: coin {i} missing field {key!r}")
            if not isinstance(obj[key], str):
                raise ValueError(f"{path}: coin {i} field {key!r} must be a string")
        spec = CoinSpec(
            name=obj["name"],
            price_csv=resolve(obj["price_csv"]),
            reddit_ndjson=resolve(obj["reddit_ndjson"]),
            subreddit=obj["subreddit"],
            github_ndjson=resolve(obj["github_ndjson"]),
            repo=obj["repo"],
        )
        if not _COIN_NAME_RE.match(spec.name):
            raise ValueError(
                f"{path}: coin name {spec.name!r} must match [a-z0-9_]+"
            )
        for key in ("subreddit", "repo"):
            if _ESCAPED_CHAR_RE.search(getattr(spec, key)):
                raise ValueError(
                    f"{path}: coin {i} field {key!r} must not hold a quote, "
                    "a backslash or a control character"
                )
        if spec.name in seen:
            raise ValueError(f"{path}: duplicate coin name {spec.name!r}")
        seen.add(spec.name)
        coins.append(spec)
    if not coins:
        raise ValueError(f"{path}: no coins configured")
    try:
        start, end = (None if raw.get(k) is None else date.fromisoformat(raw[k])
                      for k in ("start", "end"))
        lexicon = None if raw.get("lexicon") is None else resolve(raw["lexicon"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if start is not None and end is not None and start > end:
        raise ValueError(f"{path}: start {start} is after end {end}")
    vocab_size = raw.get("vocab_size", signals.DEFAULT_VOCAB_SIZE)
    if type(vocab_size) is not int:  # bool is an int subclass, and JSON true is not a size
        raise ValueError(f"{path}: vocab_size must be an integer, got {vocab_size!r}")
    if vocab_size < 1:
        raise ValueError(f"{path}: vocab_size must be positive, got {vocab_size}")
    return Config(
        coins=tuple(coins),
        start=start,
        end=end,
        vocab_size=vocab_size,
        lexicon=lexicon,
        path=path,
    )


def parse_range(text: str) -> list[int]:
    """Day ranges: '3', '1,2,5', or '1..14'."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
        values = list(range(lo, hi + 1))
    else:
        values = [int(part) for part in text.split(",") if part.strip()]
    if not values or any(v < 1 for v in values):
        raise ValueError(f"range {text!r} must contain positive days")
    return values


def _range_arg(text: str) -> list[int]:
    try:
        return parse_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _sizes_arg(text: str) -> tuple[int, ...]:
    return tuple(map(_positive_arg, text.split(",")))


def _load_lexicon(path: str | None) -> signals.SentimentLexicon:
    return signals.bundled_lexicon() if path is None else signals.load_lexicon(path)


def _load_prices(cfg: Config) -> tuple[list[ingest.PriceSeries], date, date]:
    """Every configured coin's price series and the date range they share."""
    series = [ingest.load_price_series(spec.price_csv, spec.name) for spec in cfg.coins]
    start = cfg.start or max(s.dates[0] for s in series)
    end = cfg.end or min(s.dates[-1] for s in series)
    if start > end:
        raise ValueError("coins share no common date range")
    return series, start, end


def build_bundle(
    cfg: Config,
    families: Collection[str],
    vocabulary: signals.Vocabulary | None = None,
    names: Collection[str] | None = None,
) -> tuple[harness_grid.DataBundle, list[str]]:
    """The bundle of the configured coins ``names`` (default: all of them).
    Every configured coin's prices, each file read once, set the common
    date range, and the coins in ``names`` are aligned to it before any
    archive is read; then, coin by coin, only the archives that
    ``families`` read are read and extracted (r_lang from ``vocabulary``,
    else the comments'). Also returns one summary line per coin, of what
    was read."""
    reads = {signals.FAMILIES[f].archive for f in families}
    lexicon = _load_lexicon(cfg.lexicon)
    series, start, end = _load_prices(cfg)
    aligned = [(spec, *ingest.align_calendar(price, start, end))
               for spec, price in zip(cfg.coins, series) if names is None or spec.name in names]
    coins: dict[str, harness_grid.CoinData] = {}
    lines = []
    for spec, price, fills in aligned:
        comments = events = ()  # also drops the previous coin's records
        line = f"{spec.name}: {len(price)} days {start}..{end} ({fills} forward-filled)"
        if "reddit" in reads:
            comments = ingest.load_reddit_comments(spec.reddit_ndjson, spec.subreddit)
            line += f", {len(comments)} comments"
        if "github" in reads:
            events = ingest.load_github_events(spec.github_ndjson, spec.repo)
            line += f", {len(events)} events"
        coins[spec.name] = harness_grid.assemble_coin(
            price, comments, events, lexicon, families, cfg.vocab_size, vocabulary
        )
        lines.append(line)
    return harness_grid.DataBundle(coins=coins), lines


def write_manifest(out_dir: str, command: str, seed: int, args: dict) -> str:
    """Record what produced this directory; deterministic bytes."""
    payload = {
        "tool": "coinseer",
        "version": __version__,
        "command": command,
        "seed": seed,
        "args": args,
    }
    path = os.path.join(out_dir, "run_manifest.json")
    harness_report.write_json(path, payload)
    return path


def _env_seed() -> int:
    raw = os.environ.get("COINSEER_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"COINSEER_SEED must be an integer, got {raw!r}") from None


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (default: COINSEER_SEED env var, else 0)",
    )


def _resolve_seed(args: argparse.Namespace) -> int:
    return _env_seed() if args.seed is None else args.seed


def _family_list(text: str) -> tuple[str, ...]:
    """A comma list of families, in canonical order; 'price' and 'none'
    mean no family."""
    if text in ("price", "none"):
        return ()
    return signals.parse_families(part.strip() for part in text.split(",") if part.strip())


def _signal_subsets(keyword: str) -> list[tuple[str, ...]]:
    """--signals value to LSTM subset list.

    'benchmark' is the fixed headline comparison, 'all' the powerset of
    every family, 'none' price-only, and a comma list of families the
    powerset of those.
    """
    if keyword == "benchmark":
        return list(harness_grid.BENCHMARK_SUBSETS)
    return signals.family_powerset(signals.FAMILIES if keyword == "all" else _family_list(keyword))


def _source(args: argparse.Namespace) -> tuple[Config | None, tuple[str, ...]]:
    """The run's config (None with --synthetic) and its coin names,
    checked before any data is read."""
    if args.synthetic:
        return None, harness_synth.synthetic_coin_names(args.coins, args.days)
    if not args.config:
        raise ValueError("either --config or --synthetic is required")
    cfg = load_config(args.config)
    return cfg, tuple(spec.name for spec in cfg.coins)


def _bundle_for(
    args: argparse.Namespace,
    seed: int,
    cfg: Config | None,
    names: tuple[str, ...],
    families: tuple[str, ...],
) -> harness_grid.DataBundle:
    """The bundle of coins ``names``: generated with --synthetic, else
    read from ``cfg``, whose coins set the date range."""
    if cfg is None:
        return harness_synth.synthetic_bundle(seed, args.days, names, families)
    bundle, lines = build_bundle(cfg, families, names=names)
    for line in lines:
        print(line, file=sys.stderr)
    return bundle


def cmd_synth(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    names = harness_synth.synthetic_coin_names(args.coins, args.days)
    os.makedirs(args.out, exist_ok=True)
    config_coins = []
    for name, price, comments, events in harness_synth.synthetic_coins(seed, args.days, names):
        spec = CoinSpec(name, f"price_{name}.csv", f"reddit_{name}.ndjson", name,
                        f"github_{name}.ndjson", f"{name}/{name}")
        ingest.save_price_series(os.path.join(args.out, spec.price_csv), price)
        ingest.save_reddit_comments(os.path.join(args.out, spec.reddit_ndjson), comments)
        ingest.save_github_events(os.path.join(args.out, spec.github_ndjson), events)
        config_coins.append(asdict(spec))
        print(f"{name}: {args.days} days, {len(comments)} comments, {len(events)} events")
    harness_report.write_json(os.path.join(args.out, "config.json"), {"coins": config_coins})
    write_manifest(args.out, "synth", seed, {"days": args.days, "coins": args.coins})
    print(f"wrote {args.out}/config.json")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    _, lines = build_bundle(load_config(args.config), signals.FAMILIES)
    for line in lines:
        print(line)
    return 0


def cmd_signals(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    bundle, _ = build_bundle(cfg, signals.FAMILIES)
    os.makedirs(args.out, exist_ok=True)
    for name, cd in bundle.coins.items():
        for family, matrix in cd.signals.items():
            path = os.path.join(args.out, f"signals_{name}_{family}.csv")
            signals.write_signal_csv(path, matrix)
            print(f"wrote {path} ({len(matrix.columns)} columns)")
    write_manifest(args.out, "signals", 0, {"config": os.path.basename(cfg.path)})
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    started = time.perf_counter()
    bundle, _ = build_bundle(cfg, signals.FAMILIES)
    log.debug("bundle built in %.3fs", time.perf_counter() - started)
    os.makedirs(args.out, exist_ok=True)
    for name, cd in bundle.coins.items():
        matrix = signals.concat_signals(list(cd.signals.values()))
        started = time.perf_counter()
        table = stats.correlation_table(matrix, cd.price.high)
        computed = time.perf_counter()
        path = os.path.join(args.out, f"correlation_{name}.csv")
        stats.write_correlation_csv(path, table)
        log.debug(
            "%s: %d columns x %d days; correlation table %.3fs, CSV %.3fs",
            name, len(matrix.columns), len(matrix.dates),
            computed - started, time.perf_counter() - computed,
        )
        print(f"wrote {path} ({len(table)} signals)")
    write_manifest(args.out, "correlate", 0, {"config": os.path.basename(cfg.path)})
    return 0


def _run_options(args: argparse.Namespace, seed: int, k_max: int, j_max: int) -> harness_grid.RunOptions:
    return harness_grid.RunOptions(
        master_seed=seed,
        k_max=k_max,
        j_max=j_max,
        train_frac=args.train_frac,
        sizes=args.sizes,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        max_epochs=args.epochs,
        patience=None if args.patience == 0 else args.patience,
        max_lag=args.max_lag,
        whole_series_norm=not args.train_only_norm,
    )


def _run_manifest_args(args: argparse.Namespace, **extra: object) -> dict:
    """The manifest args of a train or ablate run: its data source and
    every setting _run_options reads (--jobs changes no output byte)."""
    return {
        "source": "synthetic" if args.synthetic else os.path.basename(args.config),
        "days": args.days if args.synthetic else None,
        "coins": args.coins if args.synthetic else None,
        **{key: getattr(args, key) for key in (
            "k", "j", "train_frac", "sizes", "batch_size", "learning_rate",
            "epochs", "patience", "max_lag", "train_only_norm")},
        **extra,
    }


def cmd_train(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    options = _run_options(args, seed, k_max=args.k, j_max=args.j)
    subset = _family_list(args.signal_set)
    source, names = _source(args)
    coin = args.coin or names[0]
    if coin not in names:
        raise ValueError(f"unknown coin {coin!r}")
    bundle = _bundle_for(args, seed, source, (coin,), subset)
    cfg = harness_grid.ExperimentConfig(coin, "lstm", subset, args.k, args.j)
    result, model = harness_grid.train_lstm_experiment(cfg, bundle, options)
    os.makedirs(args.out, exist_ok=True)
    cid = harness_grid.config_id(cfg)
    model_path = os.path.join(args.out, f"model_{cid}.bin")
    lstm.save_model(model_path, model)
    harness_report.save_results(os.path.join(args.out, "results.json"), [result])
    write_manifest(args.out, "train", seed,
                   _run_manifest_args(args, coin=coin, signal_set=list(subset)))
    m = result.metrics
    assert m is not None
    print(
        f"{cid}: {len(model.history)} epochs (best {model.best_epoch}), "
        f"test MAPE {m.mape:.2f}% RMSPE {m.rmspe:.2f}% over {m.n} anchors"
    )
    print(f"wrote {model_path}")
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    model = lstm.load_model(args.model)
    if model.k < 1 or model.j < 1:
        raise ValueError(f"{args.model}: model lacks window metadata")
    cfg = load_config(args.config)
    spec = next((c for c in cfg.coins if args.coin in (None, c.name)), None)
    if spec is None:
        raise ValueError(f"coin {args.coin!r} not in {cfg.path}")
    families, vocabulary = signals.families_of_columns(model.norm.columns)
    bundle, _ = build_bundle(replace(cfg, coins=(spec,)), families, vocabulary)
    matrix = _matrix_for_columns(model.norm.columns, bundle.coins[spec.name])
    if len(matrix.dates) < model.k:
        raise ValueError(
            f"need at least {model.k} aligned days, have {len(matrix.dates)}"
        )
    normed, out_of_range = apply_minmax(matrix, model.norm)
    if out_of_range:
        print(
            f"warning: {out_of_range} signal values outside the training range",
            file=sys.stderr,
        )
    anchor = matrix.dates[-1]
    if model.train_end is not None and anchor <= model.train_end:
        print(
            f"warning: data ends {anchor}, not newer than the model's "
            f"training period (through {model.train_end})",
            file=sys.stderr,
        )
    window = normed.values[-model.k :][None]
    pred = float(lstm.predict(model, window)[0])
    payload = {
        "coin": spec.name,
        "anchor_date": anchor.isoformat(),
        "target_date": (anchor + timedelta(days=model.j)).isoformat(),
        "horizon_days": model.j,
        "prediction_usd": pred,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _matrix_for_columns(
    columns: tuple[str, ...], coin: harness_grid.CoinData
) -> signals.SignalMatrix:
    """The feature matrix a stored model was trained on: the price high
    joined to the coin's families, which must give the model's columns."""
    matrix = harness_grid.feature_matrix(coin, tuple(coin.signals))
    if matrix.columns != columns:
        raise ValueError(
            "rebuilt signal columns do not match the model's training columns"
        )
    return matrix


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmd_ablate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    options = _run_options(args, seed, k_max=max(args.k), j_max=max(args.j))
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("jobs must be positive")
    subsets = _signal_subsets(args.signals)
    families = signals.parse_families({f for s in subsets for f in s})
    source, names = _source(args)
    bundle = _bundle_for(args, seed, source, names, families)
    available = set.intersection(*(set(cd.signals) for cd in bundle.coins.values()))
    if args.signals == "all":  # the powerset of the families the data has
        subsets = [s for s in subsets if available.issuperset(s)]
    elif not available.issuperset(families):
        missing = ", ".join(signals.parse_families(set(families) - available))
        raise ValueError(f"signal families unavailable for this data: {missing}")
    configs = harness_grid.enumerate_grid(list(bundle.coins), args.k, args.j, subsets)
    total = len(configs)

    def progress(result: harness_grid.ExperimentResult) -> None:
        cid = harness_grid.config_id(result.config)
        if result.error is not None:
            print(f"[{cid}] failed: {result.error}", file=sys.stderr)
        else:
            assert result.metrics is not None
            print(f"[{cid}] rmspe {result.metrics.rmspe:.3f}%", file=sys.stderr)

    print(f"running {total} experiments", file=sys.stderr)
    jobs = args.jobs if args.jobs is not None else _usable_cores()
    results = harness_grid.run_grid(configs, bundle, options, jobs, progress)
    os.makedirs(args.out, exist_ok=True)
    harness_report.save_results(os.path.join(args.out, "results.json"), results)
    failed = sum(1 for r in results if r.metrics is None)
    try:
        written = harness_report.emit_report(results, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        write_manifest(args.out, "ablate", seed, _run_manifest_args(args, signals=args.signals))
    print(f"wrote {len(written) + 2} files to {args.out}")
    if failed:
        print(f"{failed} of {total} experiments failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results = harness_report.load_results(args.results)
    written = harness_report.emit_report(results, args.out)
    write_manifest(args.out, "report", 0, {"results": os.path.basename(args.results)})
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _add_train_knobs(parser: argparse.ArgumentParser) -> None:
    default = harness_grid.RunOptions()
    parser.add_argument("--sizes", type=_sizes_arg, default=default.sizes,
                        help="LSTM layer sizes, comma separated (default "
                        f"{','.join(map(str, default.sizes))})")
    parser.add_argument("--batch-size", type=int, default=default.batch_size)
    parser.add_argument("--learning-rate", type=float, default=default.learning_rate)
    parser.add_argument("--epochs", type=int, default=default.max_epochs,
                        help="max epochs (default %(default)s)")
    parser.add_argument("--patience", type=int, default=default.patience,
                        help="early-stopping patience, 0 disables (default %(default)s)")
    parser.add_argument("--max-lag", type=int, default=default.max_lag,
                        help="largest AR lag order considered (default %(default)s)")
    parser.add_argument("--train-frac", type=float, default=default.train_frac)
    parser.add_argument("--train-only-norm", action="store_true",
                        help="fit normalization on the training period only")


def _add_synth_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run configuration JSON")
    parser.add_argument("--synthetic", action="store_true",
                        help="generate data instead of reading archives")
    parser.add_argument("--days", type=int, default=600,
                        help="synthetic series length (default 600)")
    parser.add_argument("--coins", type=int, default=2,
                        help="synthetic coin count (default 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinseer",
        description="Cryptocurrency price-high forecasting from social signals",
    )
    parser.add_argument("--version", action="version", version=f"coinseer {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic archives")
    p.add_argument("--days", type=int, default=600)
    p.add_argument("--coins", type=int, default=2)
    p.add_argument("--out", default="out")
    _add_seed(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="load and validate configured archives")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("signals", help="extract daily signal matrices to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_signals)

    p = sub.add_parser("correlate", help="signal/price correlation tables")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("train", help="train one LSTM configuration")
    _add_synth_source(p)
    p.add_argument("--coin", help="coin name (default: first configured)")
    p.add_argument("--signal-set", default="price",
                   help="comma-separated families, or 'price' (default)")
    p.add_argument("--k", type=_positive_arg, default=1, help="input window days (default 1)")
    p.add_argument("--j", type=_positive_arg, default=1, help="forecast horizon days (default 1)")
    p.add_argument("--out", default="out")
    _add_seed(p)
    _add_train_knobs(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="forecast from a saved model")
    p.add_argument("--model", required=True, help="saved model file")
    p.add_argument("--config", required=True)
    p.add_argument("--coin", help="coin name (default: first configured)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("ablate", help="run the model/signal ablation grid")
    _add_synth_source(p)
    p.add_argument("--k", type=_range_arg, default=[1],
                   help="input window days: N, A,B,C, or LO..HI (default 1)")
    p.add_argument("--j", type=_range_arg, default=[1, 2, 3],
                   help="forecast horizons (default 1..3)")
    p.add_argument("--signals", default="benchmark",
                   help="'benchmark', 'all', 'none', or comma-separated families")
    p.add_argument("--jobs", type=int,
                   help="worker processes (default: the usable cores, at most one "
                   "per experiment)")
    p.add_argument("--out", default="out")
    _add_seed(p)
    _add_train_knobs(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="re-emit reports from saved results")
    p.add_argument("--results", required=True, help="results.json path")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
