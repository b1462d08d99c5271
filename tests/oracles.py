"""Reference helpers that only the tests call: the batch loss and its
gradients, backpropagation with one weight-gradient product per time
step, the textbook Adam step, the reader of signal CSVs, the UTC day of
a timestamp, the archive lines' decode and ISO-8601 times as json.loads
and string rewriting read them, the daily counts of np.add.at, and the
name of the OpenBLAS kernels that recorded digests depend on."""

from __future__ import annotations

import csv
import ctypes
import json
from datetime import date, datetime, timezone
from typing import Sequence

import numpy as np

from coinseer import ingest, lstm, signals
from coinseer.harness import grid
from coinseer.ingest import EventRecord
from coinseer.signals import CommentTable, SignalMatrix, Vocabulary


def loss_and_grads(
    net: lstm.Network, windows: np.ndarray, targets: np.ndarray
) -> tuple[float, lstm.ParamDict]:
    """Mean squared error over the batch and its parameter gradients."""
    y = np.asarray(targets, dtype=np.float64)
    preds, cache = lstm.forward_batch(net, windows)
    if preds.shape != y.shape:
        raise ValueError(f"targets shape {y.shape}, expected {preds.shape}")
    resid = preds - y
    mse = float(resid @ resid) / resid.size
    grads = lstm.backward(net, cache, (2.0 / resid.size) * resid)
    return mse, grads


def per_step_backward(
    net: lstm.Network,
    layers: tuple[lstm.LayerCache, ...],
    d_preds: np.ndarray,
    out: np.ndarray | None = None,
) -> lstm.ParamDict:
    """Oracle: lstm.backward as one weight-gradient GEMM per time step.

    Each step's ``dw``/``du`` term is computed into a full-size scratch
    array and added; the input gradient runs once per step. As in
    lstm.backward, each layer's gate set is read from its weight width,
    i|f|g|o (4h) or a k=1 training copy's i|g|o (3h), and the forget term
    and ``u`` are read only at t > 0. Exact
    backpropagation through time over every layer and step. The
    t=0 recurrent terms are skipped because the initial states are zero,
    which makes those contributions identically zero.

    Every element of the gradient is written into ``out`` (a new buffer
    when None), laid out like ``net.flat``; the result maps each name to
    its view of ``out``. With k=1 a network's ``u<l>`` gradients are
    written as zeros.
    """
    d = np.atleast_1d(np.asarray(d_preds, dtype=np.float64))
    batch, k, _ = layers[0].inputs.shape
    if d.shape != (batch,):
        raise ValueError(f"d_preds must have shape ({batch},), got {d.shape}")
    size = net.flat.size
    flat = np.empty(size) if out is None else out
    if flat.shape != (size,) or flat.dtype != np.float64:
        raise ValueError(f"gradient buffer must be float64 of shape ({size},)")
    grads = lstm._views(flat, net._layout)
    last_hidden = layers[-1].hidden
    grads["wd"][...] = last_hidden[:, -1].T @ d
    grads["bd"][0] = d.sum()
    d_seq = np.zeros_like(last_hidden)
    d_seq[:, -1] = d[:, None] * net.params["wd"][None, :]
    # each earlier step's term of a dw or du sum lands here before it is
    # added; one buffer serves every layer, so no step allocates
    scratch = np.empty(max(p.size for p in net.params.values())) if k > 1 else None
    for li in range(len(net.sizes), 0, -1):
        lc = layers[li - 1]
        h = net.sizes[li - 1]
        w = net.params[f"w{li}"]
        width = w.shape[1]
        g0 = width - 2 * h  # where the cell gate starts
        dw = grads[f"w{li}"]
        db = grads[f"b{li}"]
        # the first layer's input gradient would reach only the data
        d_in = np.empty_like(lc.inputs) if li > 1 else None
        dh = np.zeros((batch, h))
        dc = np.zeros((batch, h))
        dz = np.empty((batch, width))
        if scratch is not None:
            du = grads[f"u{li}"]
            dw_step = scratch[: dw.size].reshape(dw.shape)
            du_step = scratch[: du.size].reshape(du.shape)
        for t in range(k - 1, -1, -1):
            dh_t = dh + d_seq[:, t]
            gi = lc.gates[:, t, :h]
            gg = lc.gates[:, t, g0 : g0 + h]
            go = lc.gates[:, t, g0 + h :]
            ct = lc.cell_tanh[:, t]
            do = dh_t * ct
            dc = dc + dh_t * go * (1.0 - ct * ct)
            dz[:, :h] = dc * gg * gi * (1.0 - gi)
            dz[:, g0 : g0 + h] = dc * gi * (1.0 - gg * gg)
            dz[:, g0 + h :] = do * go * (1.0 - go)
            if t > 0:
                gf = lc.gates[:, t, h : 2 * h]
                c_prev = lc.cells[:, t - 1]
                dz[:, h : 2 * h] = dc * c_prev * gf * (1.0 - gf)
            elif g0 > h:
                dz[:, h : 2 * h] = 0.0
            # the last step writes each sum's first term, so ``out`` is
            # never zeroed
            if t == k - 1:
                np.matmul(lc.inputs[:, t].T, dz, out=dw)
                db[...] = dz.sum(axis=0)
            else:
                np.matmul(lc.inputs[:, t].T, dz, out=dw_step)
                dw += dw_step
                db += dz.sum(axis=0)
            if d_in is not None:
                d_in[:, t] = dz @ w.T
            if t > 0:
                if t == k - 1:
                    np.matmul(lc.hidden[:, t - 1].T, dz, out=du)
                else:
                    np.matmul(lc.hidden[:, t - 1].T, dz, out=du_step)
                    du += du_step
                dh = dz @ net.params[f"u{li}"].T
                dc = dc * gf
        if k == 1 and f"u{li}" in grads:
            grads[f"u{li}"][...] = 0.0
        d_seq = d_in
    return grads


def textbook_adam_step(
    params: lstm.ParamDict,
    grads: lstm.ParamDict,
    state: lstm.AdamState,
    t: int,
    config: lstm.TrainConfig,
) -> tuple[lstm.ParamDict, lstm.AdamState]:
    """Oracle: the bias-corrected Adam step of Kingma & Ba (2015) over the
    textbook moments ``m`` and ``v``, not lstm.AdamState's rescaled ones.

    These are the operations, in order, of the chunked 14-pass step that
    lstm.adam_step ran before it kept its moments rescaled, so swapped
    in for it, this reproduces that code's bits.
    """
    bc1 = 1.0 - lstm.BETA1**t
    bc2 = 1.0 - lstm.BETA2**t
    for key, g in grads.items():
        finite = np.isfinite(g)
        if not finite.all():
            raise lstm.NonFiniteGradient(key, int(np.argmin(finite.reshape(-1))))
    for key, p in params.items():
        g, m, v = grads[key], state.m[key], state.v[key]
        m *= lstm.BETA1
        m += g * (1.0 - lstm.BETA1)
        v *= lstm.BETA2
        v += g * g * (1.0 - lstm.BETA2)
        p -= m / bc1 * config.learning_rate / (np.sqrt(v / bc2) + lstm.EPS)
    return params, state


def read_signal_csv(path: str) -> SignalMatrix:
    """Inverse of signals.write_signal_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0] != "date":
            raise ValueError(f"{path}: first column must be date")
        columns = tuple(header[1:])
        dates: list[date] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: malformed row at line {lineno}")
            dates.append(date.fromisoformat(row[0]))
            rows.append([float(v) for v in row[1:]])
    return SignalMatrix(tuple(dates), columns, np.array(rows, dtype=np.float64))


def day_of(created_utc: int) -> date:
    """UTC calendar day of an epoch timestamp."""
    return datetime.fromtimestamp(created_utc, timezone.utc).date()


def loads_decode(line: str) -> tuple[object, int]:
    """Oracle for ingest._decode on a stripped line: json.loads's verdict,
    given as ``(value, end)`` with ``end`` the whole line."""
    return json.loads(line), len(line)


#: The forms of an ISO-8601 date that date.fromisoformat reads, with each
#: ASCII digit written as d.
ISO_DATE_FORMS = {"dddd-dd-dd", "dddddddd", "dddd-Wdd-d", "dddd-Wdd", "ddddWddd", "ddddWdd"}


def rewritten_iso_instant(value: object) -> int:
    """Oracle for ingest._parse_iso_instant: every value is stripped; a
    date alone that a sign follows (the longest text before a + or - that
    has one of the ISO_DATE_FORMS) gets T00:00 inserted before the sign;
    and a trailing Z or z is rewritten as +00:00 before
    datetime.fromisoformat."""
    if not isinstance(value, str):
        raise TypeError(f"bad timestamp type {type(value).__name__}")
    text = value.strip()
    for cut in range(len(text) - 1, 0, -1):
        form = "".join("d" if c in "0123456789" else c for c in text[:cut])
        if text[cut] in "+-" and form in ISO_DATE_FORMS:
            text = text[:cut] + "T00:00" + text[cut:]
            break
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return ingest._checked_epoch(int(dt.timestamp()))


def add_at_github_all_signal(
    events: Sequence[EventRecord], calendar: Sequence[date]
) -> SignalMatrix:
    """Oracle for signals.github_all_signal: one np.add.at of 1.0 per event."""
    col = {name: j for j, name in enumerate(ingest.EVENT_TYPES)}
    rows = signals._day_rows([rec.created_utc for rec in events], calendar)
    cols = np.array([col[rec.event_type] for rec in events], dtype=np.int64)
    inside = rows >= 0
    values = np.zeros((len(calendar), len(ingest.EVENT_TYPES)), dtype=np.float64)
    np.add.at(values, (rows[inside], cols[inside]), 1.0)
    return SignalMatrix(tuple(calendar), signals._GH_ALL_COLUMNS, values)


def add_at_reddit_language_signal(comments: CommentTable, vocabulary: Vocabulary) -> SignalMatrix:
    """Oracle for signals.reddit_language_signal: one np.add.at of 1.0 per
    vocabulary token, then each day's row divided by its float total."""
    column = np.array([vocabulary.index.get(t, -1) for t in comments.tokens], dtype=np.int64)
    cols = column[comments.token_ids]
    rows = np.repeat(comments.day, np.diff(comments.offsets))
    keep = (rows >= 0) & (cols >= 0)
    values = np.zeros((len(comments.calendar), len(vocabulary)), dtype=np.float64)
    np.add.at(values, (rows[keep], cols[keep]), 1.0)
    totals = values.sum(axis=1, keepdims=True)
    np.divide(values, totals, out=values, where=totals > 0)
    return SignalMatrix(comments.calendar, signals._language_columns(vocabulary), values)


def blas_core_name() -> str:
    """The kernel set OpenBLAS chose for this CPU (its get_corename, e.g.
    SkylakeX), read in the library that harness.grid finds, or "unknown"."""
    get_corename = grid._openblas_function("get_corename")
    if get_corename is None:
        return "unknown"
    get_corename.restype, get_corename.argtypes = ctypes.c_char_p, []
    return get_corename().decode("ascii")


def recorded_with(core: str) -> str:
    """Assertion message for a digest recorded with OpenBLAS kernel set ``core``."""
    return f"digest recorded with OpenBLAS's {core} kernels; this run has {blas_core_name()}"
