"""Stacked LSTM forward/backward, optimizer, training loop, serialization."""

import hashlib
import io
import json
import logging
import math
from datetime import date, timedelta

import numpy as np
import numpy.testing as npt
import pytest

from coinseer import lstm
from coinseer.dataset import NormParams, WindowedDataset
from oracles import loss_and_grads, per_step_backward, recorded_with, textbook_adam_step


def toy_dataset(inputs, targets, k, feature_names=None, j=1):
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = len(targets)
    names = feature_names or tuple(f"f{i}" for i in range(inputs.shape[2]))
    days = tuple(date(2021, 1, 1) + timedelta(days=i) for i in range(n))
    return WindowedDataset(
        inputs=inputs, targets=targets, anchor_dates=days, k=k, j=j,
        feature_names=tuple(names),
    )


def reference_forward(params, sizes, window):
    """Scalar-loop transcription of the stacked LSTM recurrence."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    seq = [list(map(float, row)) for row in window]
    for li, h in enumerate(sizes, start=1):
        w, u, b = params[f"w{li}"], params[f"u{li}"], params[f"b{li}"]
        h_prev = [0.0] * h
        c_prev = [0.0] * h
        out_seq = []
        for row in seq:
            z = [b[a] for a in range(4 * h)]
            for a in range(4 * h):
                for i, xv in enumerate(row):
                    z[a] += xv * w[i, a]
                for i, hv in enumerate(h_prev):
                    z[a] += hv * u[i, a]
            h_new = []
            c_new = []
            for a in range(h):
                gi = sig(z[a])
                gf = sig(z[h + a])
                gg = math.tanh(z[2 * h + a])
                go = sig(z[3 * h + a])
                c = gf * c_prev[a] + gi * gg
                c_new.append(c)
                h_new.append(go * math.tanh(c))
            h_prev, c_prev = h_new, c_new
            out_seq.append(h_new)
        seq = out_seq
    return sum(hv * wv for hv, wv in zip(seq[-1], params["wd"])) + float(params["bd"][0])


def numeric_grads(net, windows, targets, eps=1e-6):
    grads = {}
    for key, p in net.params.items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = loss_and_grads(net, windows, targets)
            flat[i] = orig - eps
            down, _ = loss_and_grads(net, windows, targets)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
        grads[key] = g
    return grads


def test_param_shapes_and_init():
    shapes = lstm.param_shapes(3, (5, 7))
    assert shapes == {
        "w1": (3, 20), "u1": (5, 20), "b1": (20,),
        "w2": (5, 28), "u2": (7, 28), "b2": (28,),
        "wd": (7,), "bd": (1,),
    }
    net = lstm.init_network(3, (5, 7), seed=42)
    for key, shape in shapes.items():
        assert net.params[key].shape == shape
    for li, h in ((1, 5), (2, 7)):
        bias = net.params[f"b{li}"]
        npt.assert_array_equal(bias[h : 2 * h], np.ones(h))
        npt.assert_array_equal(bias[:h], np.zeros(h))
        npt.assert_array_equal(bias[2 * h :], np.zeros(2 * h))
    lim_w1 = math.sqrt(6.0 / (3 + 20))
    assert np.abs(net.params["w1"]).max() <= lim_w1
    assert net.params["bd"][0] == 0.0
    other = lstm.init_network(3, (5, 7), seed=43)
    assert not np.array_equal(net.params["w1"], other.params["w1"])
    again = lstm.init_network(3, (5, 7), seed=42)
    npt.assert_array_equal(net.params["w1"], again.params["w1"])


@pytest.mark.parametrize("input_dim, sizes", [(1, (3,)), (3, (8, 16)), (5, (6, 10, 4))])
def test_one_step_init_skips_the_recurrent_draws_and_keeps_every_other_bit(input_dim, sizes):
    full = lstm.init_network(input_dim, sizes, seed=11)
    one_step = lstm.init_network(input_dim, sizes, seed=11, k=1)
    assert set(one_step.params) == set(full.params)
    for key, param in one_step.params.items():
        if key.startswith("u"):
            assert full.params[key].any() and not param.any(), key
        else:
            assert param.tobytes() == full.params[key].tobytes(), key
    for k in (None, 2, 7):
        again = lstm.init_network(input_dim, sizes, seed=11, k=k)
        assert again.flat.tobytes() == full.flat.tobytes()


def test_network_validates_params():
    with pytest.raises(ValueError, match="input_dim"):
        lstm.Network(input_dim=0, sizes=(3,))
    for sizes in ((), (3, 0)):
        with pytest.raises(ValueError, match="layer sizes"):
            lstm.Network(input_dim=2, sizes=sizes)


def test_params_are_views_of_one_flat_buffer():
    net = lstm.init_network(2, (3, 4), seed=1)
    order = ("w1", "u1", "b1", "w2", "u2", "b2", "wd", "bd")
    offset = 0
    for key in order:
        param = net.params[key]
        assert np.shares_memory(param, net.flat)
        assert param.ctypes.data == net.flat.ctypes.data + 8 * offset
        offset += param.size
    assert offset == net.flat.size == 205
    assert lstm._TrainingCopy(net, 1).flat.size == 80
    assert lstm._TrainingCopy(net, 2).flat.size == lstm._TrainingCopy(net, 7).flat.size == 205
    assert lstm._locate(net._layout, 0) == ("w1", 0)
    assert lstm._locate(net._layout, 204) == ("bd", 0)
    assert lstm._locate(net._layout, 130) == ("u2", 10)


def test_forward_matches_scalar_reference():
    rng = np.random.default_rng(14)
    for sizes in ((3,), (3, 4)):
        net = lstm.init_network(2, sizes, seed=int(rng.integers(1000)))
        window = rng.normal(size=(5, 2))
        preds, _ = lstm.forward_batch(net, window[None])
        got = float(preds[0])
        want = reference_forward(net.params, sizes, window)
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_batch_matches_single_forward():
    rng = np.random.default_rng(6)
    net = lstm.init_network(3, (4, 5), seed=2)
    windows = rng.normal(size=(7, 4, 3))
    preds, _ = lstm.forward_batch(net, windows)
    for s in range(7):
        single, _ = lstm.forward_batch(net, windows[s][None])
        npt.assert_allclose(preds[s], single[0], rtol=1e-12)
    with pytest.raises(ValueError):
        lstm.forward_batch(net, rng.normal(size=(7, 4, 2)))
    with pytest.raises(ValueError):
        lstm.forward_batch(net, rng.normal(size=(7, 4)))


def masked_sigmoid(z):
    """The earlier two-branch form: each sign's half gathered, mapped and
    scattered back."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bitwise_equal_to_masked_form():
    rng = np.random.default_rng(21)
    draws = [rng.normal(scale=scale, size=(16, 3200)) for scale in (1e-3, 1e-1, 1e1, 1e3)]
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan, 1e-300, -1e-300])
    for z in draws + [edges, rng.normal(size=(16, 40))[:, 8:24]]:
        got = lstm._sigmoid(z)
        want = masked_sigmoid(np.ascontiguousarray(z))
        assert got.shape == z.shape
        # a NaN stays NaN; only its sign bit may differ (-|NaN| is -NaN)
        nan = np.isnan(z)
        npt.assert_array_equal(np.isnan(got), nan)
        npt.assert_array_equal(np.isnan(want), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
    npt.assert_array_equal(lstm._sigmoid(edges[:6]), [0.5, 0.5, 1.0, 0.0, 1.0, 0.0])


def test_backward_matches_numeric_gradients():
    rng = np.random.default_rng(3)
    for sizes, k in (((3,), 3), ((2, 3), 3), ((2, 3), 1)):
        net = lstm.init_network(2, sizes, seed=int(rng.integers(1000)))
        windows = rng.normal(size=(4, k, 2))
        targets = rng.normal(size=4)
        _, grads = loss_and_grads(net, windows, targets)
        numeric = numeric_grads(net, windows, targets)
        assert grads.keys() == numeric.keys()
        for key in grads:
            denom = max(np.abs(numeric[key]).max(), 1e-8)
            rel = np.abs(grads[key] - numeric[key]).max() / denom
            assert rel < 1e-6, f"{sizes} k={k} {key}: rel err {rel}"


@pytest.mark.parametrize("sizes", [(5,), (4, 6)])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_backward_matches_per_step_oracle(sizes, k):
    rng = np.random.default_rng(k)
    for batch in (1, 2, 7, 16):
        net = lstm.init_network(3, sizes, seed=int(rng.integers(1000)))
        _, cache = lstm.forward_batch(net, rng.normal(size=(batch, k, 3)))
        d = rng.normal(size=batch)
        want = per_step_backward(net, cache, d)
        got = lstm.backward(net, cache, d)
        assert got.keys() == want.keys()
        for key, g in want.items():
            if k == 1:
                # one step: the stacked products are the per-step ones
                assert got[key].tobytes() == g.tobytes(), (batch, key)
            else:
                # the step sums of dw, du and db run in another order
                err = np.abs(got[key] - g).max()
                assert err <= 1e-12 * np.abs(g).max(), (batch, key, err)


def zero_adam(params):
    return lstm.AdamState(
        m={k: np.zeros(p.shape) for k, p in params.items()},
        v={k: np.zeros(p.shape) for k, p in params.items()},
    )


def test_adam_known_single_step():
    config = lstm.TrainConfig(learning_rate=0.001)
    params = {"x": np.array([1.0])}
    grads = {"x": np.array([0.5])}
    state = zero_adam(params)
    lstm.adam_step(params, grads, state, 1, config)
    m_hat = 0.5  # (0.1 * 0.5) / (1 - 0.9)
    v_hat = 0.25  # (0.001 * 0.25) / (1 - 0.999)
    want = 1.0 - 0.001 * m_hat / (math.sqrt(v_hat) + lstm.EPS)
    npt.assert_allclose(params["x"][0], want, rtol=1e-15)


def test_adam_zero_lr_and_zero_grad_behavior():
    net = lstm.init_network(2, (3,), seed=1)
    before = {k: p.copy() for k, p in net.params.items()}
    zero_cfg = lstm.TrainConfig(learning_rate=0.0)
    grads = {k: np.ones_like(p) for k, p in net.params.items()}
    lstm.adam_step(net.params, grads, zero_adam(net.params), 1, zero_cfg)
    for key in before:
        npt.assert_array_equal(net.params[key], before[key])

    # an all-zero gradient with empty history leaves the array untouched
    config = lstm.TrainConfig()
    params = {"a": np.array([2.0]), "b": np.array([3.0])}
    state = zero_adam(params)
    lstm.adam_step(params, {"a": np.zeros(1), "b": np.ones(1)}, state, 1, config)
    assert params["a"][0] == 2.0
    assert params["b"][0] != 3.0

    # but a zero gradient after momentum has accumulated still moves
    b_after_first = params["b"][0]
    lstm.adam_step(params, {"a": np.zeros(1), "b": np.zeros(1)}, state, 2, config)
    assert params["b"][0] != b_after_first

    with pytest.raises(ArithmeticError, match="non-finite"):
        lstm.adam_step(params, {"a": np.array([np.nan]), "b": np.zeros(1)}, state, 3, config)


def per_array_adam_step(params, grads, state, t, config):
    """Oracle: lstm.adam_step's update over rescaled moments, in its
    operation order, applied one whole array at a time and skipping
    arrays whose gradient and second moment are both all zero."""
    r = math.sqrt((1.0 - lstm.BETA2) / (1.0 - lstm.BETA2**t))
    alpha = config.learning_rate * (1.0 - lstm.BETA1) / ((1.0 - lstm.BETA1**t) * r)
    eps = lstm.EPS / r
    for key, p in params.items():
        g = grads[key]
        v = state.v[key]
        if not g.any() and not v.any():
            continue
        if not np.all(np.isfinite(g)):
            raise ArithmeticError(f"non-finite gradient for parameter {key}")
        m = state.m[key]
        m *= lstm.BETA1
        m += g
        v *= lstm.BETA2
        v += g * g
        p -= m / (np.sqrt(v) + eps) * alpha


@pytest.mark.parametrize("chunk", [None, 1000])
def test_adam_step_stays_within_1e_9_of_the_textbook_step(monkeypatch, chunk):
    # 60 steps over two arrays, one of them longer than a chunk, with
    # gradients that shrink, change sign and are sometimes exactly zero.
    # The rescaled step reorders the arithmetic of the textbook one, so
    # its parameters drift from the textbook's in the last bits: by at
    # most 1.4e-11 relative, elementwise, after 55 such steps over 1.085 M
    # parameters.
    if chunk is not None:
        monkeypatch.setattr(lstm, "_CHUNK", chunk)
    rng = np.random.default_rng(23)
    start = {"a": rng.uniform(-0.5, 0.5, size=(50, 1001)), "b": rng.uniform(-0.5, 0.5, size=7)}
    params = {key: p.copy() for key, p in start.items()}
    want = {key: p.copy() for key, p in start.items()}
    state, textbook = zero_adam(params), zero_adam(params)
    config = lstm.TrainConfig(learning_rate=0.002)
    for t in range(1, 61):
        grads = {key: rng.normal(scale=0.1 / math.sqrt(t), size=p.shape) for key, p in start.items()}
        grads["a"][rng.random(grads["a"].shape) < 0.05] = 0.0
        lstm.adam_step(params, grads, state, t, config)
        textbook_adam_step(want, grads, textbook, t, config)
    for key in start:
        assert not np.array_equal(params[key], start[key])
        npt.assert_allclose(params[key], want[key], rtol=1e-9, atol=0)
        npt.assert_allclose(state.m[key] * (1.0 - lstm.BETA1), textbook.m[key], rtol=1e-9, atol=0)
        npt.assert_allclose(state.v[key] * (1.0 - lstm.BETA2), textbook.v[key], rtol=1e-9, atol=0)


def per_array_train(net, fit_set, val_set, config):
    """Oracle: train() as a loop over every named parameter array, with
    whole-dict best-epoch snapshots. Returns (params, history, best_epoch)."""
    work = lstm.Network(net.input_dim, net.sizes)
    work.flat[...] = net.flat
    params = work.params
    state = lstm.AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )
    rng = np.random.default_rng(config.seed)
    stopper = lstm.EarlyStopper(config.patience)
    best = {k: p.copy() for k, p in params.items()}
    history = []
    n = len(fit_set)
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        sse = 0.0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            preds, cache = lstm.forward_batch(work, fit_set.inputs[idx])
            resid = preds - fit_set.targets[idx]
            sse += float(resid @ resid)
            grads = lstm.backward(work, cache, (2.0 / idx.size) * resid)
            step += 1
            per_array_adam_step(params, grads, state, step, config)
        val_preds, _ = lstm.forward_batch(work, val_set.inputs)
        val_resid = val_preds - val_set.targets
        val_mse = float(val_resid @ val_resid) / val_resid.size
        history.append(lstm.EpochStats(epoch, sse / n, val_mse))
        if stopper.update(val_mse):
            best = {k: p.copy() for k, p in params.items()}
        if stopper.should_stop:
            break
    return best, tuple(history), stopper.best_epoch


def random_task(rng, n, k, input_dim):
    inputs = rng.uniform(size=(n, k, input_dim))
    targets = inputs[:, -1, 0] * 0.6 + 0.2 + rng.normal(scale=0.05, size=n)
    return toy_dataset(inputs, targets, k)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("sizes", [(5,), (4, 6)])
def test_train_is_bitwise_equal_to_per_array_oracle(float64_training, monkeypatch, sizes, k, chunk):
    if chunk is not None:
        # chunks that end inside every parameter array
        monkeypatch.setattr(lstm, "_CHUNK", chunk)
    rng = np.random.default_rng(17)
    fit = random_task(rng, 23, k, 3)
    val = random_task(rng, 7, k, 3)
    config = lstm.TrainConfig(seed=4, batch_size=5, learning_rate=0.05,
                              max_epochs=12, patience=3)
    net = lstm.init_network(3, sizes, seed=8)
    initial = {key: p.copy() for key, p in net.params.items()}
    want_params, want_history, want_best = per_array_train(net, fit, val, config)
    norm = NormParams(columns=("f0", "f1", "f2"), mins=np.zeros(3), maxs=np.ones(3))
    model = lstm.train(net, fit, val, config, norm=norm)
    assert model.history == want_history
    assert model.best_epoch == want_best
    for key, want in want_params.items():
        assert model.network.params[key].tobytes() == want.tobytes(), key
    if k == 1:
        for li in range(1, len(sizes) + 1):
            key = f"u{li}"
            assert model.network.params[key].tobytes() == initial[key].tobytes()
    else:
        assert not np.array_equal(model.network.params["u1"], initial["u1"])


@pytest.mark.parametrize("sizes", [(8,), (8, 16)])
def test_one_step_train_with_a_one_row_last_batch_matches_per_array_oracle(float64_training, sizes):
    # 21 rows in batches of 5: the last batch is one row, so its forward
    # products are matrix-vector products. Layer widths are multiples of
    # 8, where the k=1 training copy's products are bitwise equal to the
    # four-gate ones (see test_one_step_span_matches_the_four_gate_path).
    rng = np.random.default_rng(19)
    fit = random_task(rng, 21, 1, 3)
    val = random_task(rng, 7, 1, 3)
    config = lstm.TrainConfig(seed=4, batch_size=5, learning_rate=0.05,
                              max_epochs=12, patience=3)
    net = lstm.init_network(3, sizes, seed=8)
    want_params, want_history, want_best = per_array_train(net, fit, val, config)
    norm = NormParams(columns=("f0", "f1", "f2"), mins=np.zeros(3), maxs=np.ones(3))
    model = lstm.train(net, fit, val, config, norm=norm)
    assert model.history == want_history
    assert model.best_epoch == want_best
    for key, want in want_params.items():
        assert model.network.params[key].tobytes() == want.tobytes(), key


@pytest.mark.parametrize("sizes", [(8,), (8, 16), (5,), (4, 6)])
def test_one_step_span_matches_the_four_gate_path(float64_training, sizes):
    # OpenBLAS (0.3.31, x86-64) gives a column of a product the same bits
    # at width 3h as at 4h when h is a multiple of 8; at other widths it
    # can round the last bit differently, mostly at one row
    exact = all(h % 8 == 0 for h in sizes)

    def same(got, want):
        if exact:
            return got.tobytes() == want.tobytes()
        return np.allclose(got, want, rtol=1e-12, atol=0.0)

    net = lstm.init_network(3, sizes, seed=5)
    copy = lstm._TrainingCopy(net, 1)
    # every copy position holds the canonical element locate names
    for pos in range(copy.flat.size):
        name, element = copy.locate(pos)
        assert copy.flat[pos] == net.params[name].reshape(-1)[element], pos
    # the network positions outside the recurrent weights u<l>
    live = {offset + element for name, (offset, shape) in net._layout.items()
            if name[0] != "u" for element in range(math.prod(shape))}
    located = {net._layout[name][0] + element
               for name, element in map(copy.locate, range(copy.flat.size))}
    assert len(located) == copy.flat.size and located <= live
    # what is left out is exactly the forget-gate columns
    for pos in live - located:
        name, element = lstm._locate(net._layout, pos)
        h = net.sizes[int(name[1:]) - 1]
        assert name[0] in "wb" and h <= element % (4 * h) < 2 * h

    rng = np.random.default_rng(len(sizes))
    for batch in (1, 2, 7, 16):
        windows = rng.normal(size=(batch, 1, 3))
        want_preds, want_cache = lstm.forward_batch(net, windows)
        got_preds, got_cache = lstm.forward_batch(copy, windows)
        assert same(got_preds, want_preds), batch
        d = rng.normal(size=batch)
        want = lstm.backward(net, want_cache, d)
        got = np.full(copy.flat.size, np.nan)
        lstm.backward(copy, got_cache, d, out=got)
        want_copy = np.array([want[name].reshape(-1)[element]
                              for name, element in map(copy.locate, range(got.size))])
        assert same(got, want_copy), batch
    before = net.flat.copy()
    copy.unpack()
    assert net.flat.tobytes() == before.tobytes()
    copy.flat += 1.0
    copy.unpack()
    changed = np.flatnonzero(net.flat != before)
    assert sorted(changed) == sorted(located)


def test_one_step_span_at_the_pinned_sizes(float64_training):
    # 47 inputs and sizes 400,800, as in the pinned ablation, batch 16.
    # The forward and the gradients of w2, b2, wd and bd are bitwise those
    # of the four-gate path. The layer-2 input gradient runs over i|g|o
    # (K=2,400) where the four-gate path runs over i|f|g|o (K=3,200, the
    # f terms exact zeros); the BLAS splits the two sums differently, so
    # w1 and b1 differ in last bits: within 1e-12 of each parameter's
    # largest element (about 1e-15 measured).
    rtol = 1e-12
    net = lstm.init_network(47, (400, 800), seed=5)
    copy = lstm._TrainingCopy(net, 1)
    rng = np.random.default_rng(47)
    windows = rng.normal(size=(16, 1, 47))
    want_preds, want_cache = lstm.forward_batch(net, windows)
    got_preds, got_cache = lstm.forward_batch(copy, windows)
    assert got_preds.tobytes() == want_preds.tobytes()
    d = rng.normal(size=16)
    want = lstm.backward(net, want_cache, d)
    got = lstm.backward(copy, got_cache, d)
    for key, g in got.items():
        if key in ("wd", "bd"):
            w = want[key]
        else:  # the same parameter's i|g|o columns
            h = net.sizes[int(key[1:]) - 1]
            w = np.delete(want[key], np.s_[h : 2 * h], axis=-1)
        if key in ("w1", "b1"):
            err = np.abs(g - w).max()
            assert err <= rtol * np.abs(w).max(), (key, err)
        else:
            assert g.tobytes() == w.tobytes(), key


def test_a_layer_without_forget_gate_serves_only_one_step_windows():
    net = lstm.init_network(3, (4, 5), seed=2)
    copy = lstm._TrainingCopy(net, 1)
    windows = np.random.default_rng(3).normal(size=(2, 2, 3))
    with pytest.raises(ValueError, match=r"layer 1 .* i\|g\|o \(12\) serves only k=1, not k=2"):
        lstm.forward_batch(copy, windows)
    _, cache = lstm.forward_batch(net, windows)
    with pytest.raises(ValueError, match=r"layer 2 .* i\|g\|o \(15\) serves only k=1, not k=2"):
        lstm.backward(copy, cache, np.ones(2))


@pytest.mark.parametrize("k", [2, 7])
def test_training_copy_above_one_step_holds_and_unpacks_every_parameter(float64_training, k):
    net = lstm.init_network(3, (4, 6), seed=5)
    copy = lstm._TrainingCopy(net, k)
    assert copy._layout == net._layout
    assert copy.flat.tobytes() == net.flat.tobytes()
    assert not np.shares_memory(copy.flat, net.flat)
    for pos in range(copy.flat.size):
        name, element = copy.locate(pos)
        assert (name, element) == lstm._locate(net._layout, pos)
        assert copy.flat[pos] == net.params[name].reshape(-1)[element], pos
    before = net.flat.copy()
    copy.unpack()
    assert net.flat.tobytes() == before.tobytes()
    copy.flat += 1.0
    copy.unpack()
    assert net.flat.tobytes() == (before + 1.0).tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_a_failed_train_leaves_the_best_epoch_so_far_in_the_network(
    float64_training, monkeypatch, k
):
    # the gradient turns NaN in epoch 2, after epoch 1 improved (the first
    # epoch always does): the network holds epoch 1's parameters, as the
    # per-array oracle trained for one epoch leaves them
    rng = np.random.default_rng(17)
    fit = random_task(rng, 23, k, 3)
    val = random_task(rng, 7, k, 3)
    config = lstm.TrainConfig(seed=4, batch_size=5, learning_rate=0.05,
                              max_epochs=12, patience=3)
    net = lstm.init_network(3, (4, 6), seed=8)
    initial = net.flat.copy()
    want_params, _, _ = per_array_train(
        net, fit, val, lstm.TrainConfig(seed=4, batch_size=5, learning_rate=0.05, max_epochs=1))
    batches = -(-len(fit) // config.batch_size)
    calls = 0
    real_backward = lstm.backward

    def backward_failing_in_epoch_2(*args, **kwargs):
        nonlocal calls
        grads = real_backward(*args, **kwargs)
        calls += 1
        if calls == batches + 2:
            kwargs["out"][0] = np.nan
        return grads

    monkeypatch.setattr(lstm, "backward", backward_failing_in_epoch_2)
    norm = NormParams(columns=("f0", "f1", "f2"), mins=np.zeros(3), maxs=np.ones(3))
    with pytest.raises(ArithmeticError, match=r"parameter w1 at element 0$"):
        lstm.train(net, fit, val, config, norm=norm)
    assert calls == batches + 2
    assert not np.array_equal(net.flat, initial)
    for key, want in want_params.items():
        assert net.params[key].tobytes() == want.tobytes(), key


def training_dtypes(monkeypatch, net, fit, val, config, norm):
    """train's model, and the (part, dtype) of every array it trained
    with: the copy, each forward's predictions and caches (validation's
    apart), the gradient and Adam's arrays."""
    seen = set()
    real_forward, real_backward, real_adam_step = lstm.forward_batch, lstm.backward, lstm.adam_step

    def forward_batch(net, windows):
        preds, cache = real_forward(net, windows)
        part = "validation" if windows is val.inputs else "forward"
        seen.update((part, a.dtype) for a in (preds, *(a for lc in cache for a in lc)))
        seen.update(("copy" if part == "forward" else part, a.dtype) for a in (net.flat, *net.spare))
        return preds, cache

    def backward(net, layers, d_preds, out=None):
        grads = real_backward(net, layers, d_preds, out=out)
        seen.update(("gradient", g.dtype) for g in grads.values())
        return grads

    def adam_step(params, grads, state, t, config):
        seen.update(("adam", a.dtype) for d in (params, grads, state.m, state.v) for a in d.values())
        return real_adam_step(params, grads, state, t, config)

    with monkeypatch.context() as m:
        for name, wrapped in (("forward_batch", forward_batch), ("backward", backward),
                              ("adam_step", adam_step)):
            m.setattr(lstm, name, wrapped)
        return lstm.train(net, fit, val, config, norm=norm), seen


@pytest.mark.parametrize("k", [1, 3])
def test_the_training_copy_alone_sets_the_training_dtype(monkeypatch, tmp_path, k):
    # Training computes in float32 and validates in float64; with the
    # training dtype set back to float64, every array training makes
    # follows the copy to float64. The network, predict and the model file
    # stay float64, and the predictions stay near the float64 run's.
    rng = np.random.default_rng(17)
    fit = random_task(rng, 23, k, 3)
    val = random_task(rng, 7, k, 3)
    config = lstm.TrainConfig(seed=4, batch_size=5, learning_rate=0.01,
                              max_epochs=4, patience=None)
    norm = NormParams(columns=("price_high", "f1", "f2"), mins=np.zeros(3), maxs=np.ones(3))
    parts = ("copy", "forward", "gradient", "adam")
    model, seen = training_dtypes(
        monkeypatch, lstm.init_network(3, (8, 16), seed=8), fit, val, config, norm)
    assert seen == {(part, np.dtype(np.float32)) for part in parts} | {
        ("validation", np.dtype(np.float64))}
    monkeypatch.setattr(lstm, "_TRAINING_DTYPE", np.float64)
    want, seen = training_dtypes(
        monkeypatch, lstm.init_network(3, (8, 16), seed=8), fit, val, config, norm)
    monkeypatch.undo()
    assert seen == {(part, np.dtype(np.float64)) for part in (*parts, "validation")}
    assert model.network.flat.dtype == np.float64
    got, float64_run = lstm.predict(model, val.inputs), lstm.predict(want, val.inputs)
    assert got.dtype == np.float64
    npt.assert_allclose(got, float64_run, rtol=1e-5)
    assert not np.array_equal(got, float64_run)
    path = tmp_path / "m.bin"
    lstm.save_model(str(path), model)
    with open(path, "rb") as fh:
        fh.readline(), fh.readline()
        saved = [np.load(fh) for _ in range(2 + len(model.network.params))]
    assert {a.dtype for a in saved} == {np.dtype(np.float64)}
    loaded = lstm.load_model(str(path))
    assert loaded.network.flat.tobytes() == model.network.flat.tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_the_best_validation_mse_is_the_returned_networks(k):
    # float32 training validates in float64, so the history's best
    # val_mse is the MSE the returned network gives: bitwise at k > 1,
    # where the copy is laid out as the network, and within 1e-12 at k=1,
    # where the copy's products run over i|g|o and the network's over
    # i|f|g|o (see test_one_step_span_matches_the_four_gate_path)
    rng = np.random.default_rng(17)
    fit = random_task(rng, 23, k, 3)
    val = random_task(rng, 7, k, 3)
    config = lstm.TrainConfig(seed=4, batch_size=5, learning_rate=0.05,
                              max_epochs=12, patience=3)
    norm = NormParams(columns=("f0", "f1", "f2"), mins=np.zeros(3), maxs=np.ones(3))
    model = lstm.train(lstm.init_network(3, (4, 6), seed=8), fit, val, config, norm=norm)
    best = min(s.val_mse for s in model.history)
    assert model.history[model.best_epoch - 1].val_mse == best
    preds, _ = lstm.forward_batch(model.network, val.inputs)
    resid = preds - val.targets
    mse = float(resid @ resid) / resid.size
    if k == 1:
        npt.assert_allclose(mse, best, rtol=1e-12, atol=0)
    else:
        assert mse == best


def test_backward_and_adam_step_reject_arrays_of_another_dtype():
    net = lstm.init_network(3, (4, 6), seed=5)
    _, cache = lstm.forward_batch(net, np.random.default_rng(1).uniform(size=(2, 3, 3)))
    with pytest.raises(ValueError, match=r"^gradient buffer must match the weights: "
                                         r"float64 of shape \(399,\)$"):
        lstm.backward(net, cache, np.ones(2), out=np.empty(net.flat.size, np.float32))
    grads = lstm.backward(net, cache, np.ones(2))
    state = zero_adam(net.params)
    state.v["bd"] = state.v["bd"].astype(np.float32)
    before = net.flat.copy()
    with pytest.raises(ValueError, match=r"^parameter bd: mixed dtypes "
                                         r"\['float64', 'float64', 'float64', 'float32'\]$"):
        lstm.adam_step(net.params, grads, state, 1, lstm.TrainConfig())
    assert net.flat.tobytes() == before.tobytes()
    assert not any(m.any() for m in state.m.values())


# (k, position in the flat buffer, parameter, element) for net (2, (3, 4)),
# whose 205 elements hold w1 at 0, u1 at 24, b1 at 60, w2 at 72, u2 at
# 120, b2 at 184, wd at 200 and bd at 204. The k=3 training copy has the
# same layout.
POISON_SITES = [
    (1, 0, "w1", 0),
    (1, 204, "bd", 0),
    (1, 118, "w2", 46),
    (3, 0, "w1", 0),
    (3, 183, "u2", 63),
    (3, 130, "u2", 10),
]


# (parameter, canonical element) -> position in the k=1 training copy of net
# (2, (3, 4)), which packs w1 (2, 9) at 0, b1 at 18, w2 (3, 12) at 27,
# b2 at 63, wd at 75 and bd at 79. w2 element 46 is row 2, column 14 of
# i|f|g|o (the o block), so column 10 of i|g|o: 27 + 2 * 12 + 10.
ONE_STEP_SPAN_POSITION = {("w1", 0): 0, ("bd", 0): 79, ("w2", 46): 61}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k, pos, name, element", POISON_SITES)
def test_non_finite_gradient_is_named_and_changes_nothing(
    float64_training, monkeypatch, k, pos, name, element, bad
):
    net = lstm.init_network(2, (3, 4), seed=1)
    assert np.shares_memory(net.flat[pos : pos + 1], net.params[name].reshape(-1)[element : element + 1])
    # backward writes the training copy's gradient, so the poison goes to
    # the copy's position of the element
    grad_pos = ONE_STEP_SPAN_POSITION[name, element] if k == 1 else pos
    live = lstm._TrainingCopy(net, k).flat
    config = lstm.TrainConfig()

    # adam_step checks the whole gradient before it touches anything
    rng = np.random.default_rng(pos)
    params = {"live": live}
    state = zero_adam(params)
    for t in (1, 2):
        lstm.adam_step(params, {"live": rng.normal(size=live.size)}, state, t, config)
    grad = rng.normal(size=live.size)
    grad[grad_pos] = bad
    before = [a.copy() for a in (live, state.m["live"], state.v["live"])]
    with pytest.raises(ArithmeticError, match=rf"non-finite gradient for parameter live at element {grad_pos}$"):
        lstm.adam_step(params, {"live": grad}, state, 3, config)
    for was, now in zip(before, (live, state.m["live"], state.v["live"])):
        assert now.tobytes() == was.tobytes()

    # train names the parameter the element belongs to
    initial = net.flat.copy()
    real_backward = lstm.backward

    def poisoned_backward(*args, **kwargs):
        grads = real_backward(*args, **kwargs)
        kwargs["out"][grad_pos] = bad
        return grads

    monkeypatch.setattr(lstm, "backward", poisoned_backward)
    ds = random_task(np.random.default_rng(2), 6, k, 2)
    norm = NormParams(columns=("f0", "f1"), mins=np.zeros(2), maxs=np.ones(2))
    with pytest.raises(ArithmeticError, match=rf"parameter {name} at element {element}$"):
        lstm.train(net, ds, ds, config, norm=norm)
    assert net.flat.tobytes() == initial.tobytes()


def test_early_stopper_scripted_sequence():
    stopper = lstm.EarlyStopper(patience=2)
    assert stopper.update(0.5) is True
    assert not stopper.should_stop
    assert stopper.update(0.4) is True
    assert stopper.update(0.45) is False
    assert not stopper.should_stop
    assert stopper.update(0.46) is False
    assert stopper.should_stop
    assert stopper.best_epoch == 2
    assert stopper.epoch == 4

    unlimited = lstm.EarlyStopper(patience=None)
    for value in (0.5, 0.6, 0.7, 0.8):
        unlimited.update(value)
    assert not unlimited.should_stop
    with pytest.raises(ValueError):
        lstm.EarlyStopper(patience=0)


def make_sine_task(n=50, k=4):
    phase = np.linspace(0, 6 * np.pi, n + k + 1)
    wave = 0.5 + 0.4 * np.sin(phase)
    inputs = np.stack([wave[i : i + k, None] for i in range(n)])
    targets = wave[np.arange(n) + k]
    return toy_dataset(inputs, targets, k)


def test_train_learns_and_restores_best_weights():
    ds = make_sine_task()
    fit, val = ds, toy_dataset(ds.inputs[-8:], ds.targets[-8:], ds.k)
    net = lstm.init_network(1, (6,), seed=5)
    norm = NormParams(columns=("f0",), mins=np.zeros(1), maxs=np.ones(1))
    config = lstm.TrainConfig(seed=5, batch_size=8, learning_rate=0.02,
                              max_epochs=60, patience=None)
    model = lstm.train(net, fit, val, config, norm=norm)
    assert len(model.history) == 60
    assert model.history[-1].train_mse < model.history[0].train_mse
    assert model.history[-1].train_mse < 0.01

    best_val = min(s.val_mse for s in model.history)
    assert model.history[model.best_epoch - 1].val_mse == best_val
    preds, _ = lstm.forward_batch(model.network, val.inputs)
    restored_mse = float(((preds - val.targets) ** 2).mean())
    npt.assert_allclose(restored_mse, best_val, rtol=1e-12)


def test_train_early_stopping_can_end_before_max_epochs():
    ds = make_sine_task(n=30)
    val = toy_dataset(ds.inputs[:6], ds.targets[:6], ds.k)
    net = lstm.init_network(1, (5,), seed=11)
    norm = NormParams(columns=("f0",), mins=np.zeros(1), maxs=np.ones(1))
    config = lstm.TrainConfig(seed=11, batch_size=4, learning_rate=0.05,
                              max_epochs=400, patience=2)
    model = lstm.train(net, ds, val, config, norm=norm)
    assert len(model.history) < 400
    last = model.history[-1].epoch
    assert model.best_epoch == last - 2


def test_train_diverges_loudly():
    ds = make_sine_task(n=20)
    net = lstm.init_network(1, (4,), seed=2)
    norm = NormParams(columns=("f0",), mins=np.zeros(1), maxs=np.ones(1))
    config = lstm.TrainConfig(seed=2, batch_size=4, learning_rate=1e200,
                              max_epochs=30, patience=None)
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError):
        lstm.train(net, ds, ds, config, norm=norm)


def test_diverged_epoch_raises_and_keeps_initial_weights():
    # finite gradients, but a validation MSE that overflows to inf
    ds = make_sine_task(n=20)
    far = toy_dataset(ds.inputs, np.full(len(ds), 1e200), ds.k)
    net = lstm.init_network(1, (4,), seed=2)
    initial = {key: value.copy() for key, value in net.params.items()}
    norm = NormParams(columns=("f0",), mins=np.zeros(1), maxs=np.ones(1))
    config = lstm.TrainConfig(seed=2, batch_size=4, max_epochs=3, patience=None)
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError,
                                                   match="^training diverged at epoch 1$"):
        lstm.train(net, ds, far, config, norm=norm)
    assert net.params.keys() == initial.keys()
    for key, value in initial.items():
        npt.assert_array_equal(net.params[key], value, err_msg=key)


def test_train_validates_inputs():
    ds = make_sine_task(n=20)
    other = toy_dataset(ds.inputs, ds.targets, ds.k, feature_names=("g0",))
    net = lstm.init_network(1, (4,), seed=2)
    norm = NormParams(columns=("f0",), mins=np.zeros(1), maxs=np.ones(1))
    config = lstm.TrainConfig()
    with pytest.raises(ValueError, match="feature names"):
        lstm.train(net, ds, other, config, norm=norm)
    last_day = toy_dataset(ds.inputs[:, -1:], ds.targets, 1)
    for fit, val in ((ds, last_day), (last_day, ds)):
        with pytest.raises(ValueError, match="window sizes differ"):
            lstm.train(net, fit, val, config, norm=norm)
    wide = lstm.init_network(3, (4,), seed=2)
    with pytest.raises(ValueError, match="features"):
        lstm.train(wide, ds, ds, config, norm=norm)


def test_train_config_validation():
    with pytest.raises(ValueError):
        lstm.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        lstm.TrainConfig(patience=0)
    with pytest.raises(ValueError):
        lstm.TrainConfig(learning_rate=-1.0)
    assert lstm.TrainConfig(patience=None).patience is None


def test_model_round_trip_and_deterministic_bytes(tmp_path):
    ds = make_sine_task(n=12)
    net = lstm.init_network(1, (3,), seed=7)
    norm = NormParams(columns=("f0",), mins=np.array([0.1]), maxs=np.array([0.9]))
    config = lstm.TrainConfig(seed=7, batch_size=4, max_epochs=3, patience=None)
    model = lstm.train(net, ds, ds, config, norm=norm)
    model.k, model.j = ds.k, ds.j

    path = tmp_path / "m.bin"
    lstm.save_model(str(path), model)
    loaded = lstm.load_model(str(path))
    assert loaded.network.sizes == model.network.sizes
    assert loaded.best_epoch == model.best_epoch
    assert loaded.history == model.history
    assert loaded.k == ds.k and loaded.j == ds.j
    assert loaded.train_end == model.train_end
    assert loaded.norm.columns == model.norm.columns
    npt.assert_array_equal(loaded.norm.mins, model.norm.mins)
    for key in model.network.params:
        npt.assert_array_equal(loaded.network.params[key], model.network.params[key])

    second = tmp_path / "m2.bin"
    lstm.save_model(str(second), loaded)
    assert path.read_bytes() == second.read_bytes()

    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"not a model\n")
    with pytest.raises(ValueError, match="not a model"):
        lstm.load_model(str(junk))


#: The OpenBLAS kernel set (oracles.blas_core_name) that the three digest
#: sets below were recorded with. numpy's OpenBLAS picks its kernels by
#: CPU at run time, and another set may round a product differently.
MODEL_SHA256_BLAS_CORE = "SkylakeX"

# sha256 of save_model's bytes for small_trained_model(k, sizes), recorded
# by the code that kept each parameter in its own array (numpy 2.4.6,
# OpenBLAS 0.3.31, x86-64). That code summed the weight gradients one time
# step at a time, as oracles.per_step_backward still does.
RECORDED_MODEL_SHA256 = {
    (1, (3, 4)): "958e0c3074dc1377f405daf9f85b6d92bfc43b9ff6fe44951f1ca452e503c12b",
    (4, (3,)): "2b8da75bf96028e7e3c8ba9bebfd477033bff1a5b876ddf71f95363a9bb14245",
    (3, (3, 4)): "326688c2f161adae9cc966d87146906729dd91d93258d4c8d2bf9bcd339ce30d",
}

# The entries whose bits moved when backward summed each layer's weight
# gradients over all time steps in one product: the sums of X_t^T dz_t and
# H_(t-1)^T dz_t, and of db, run in another order. k=1 has one step. The
# textbook Adam step (oracles.textbook_adam_step) reproduces these.
STACKED_MODEL_SHA256 = {
    (4, (3,)): "ada41d460daadf9bb230d545ce39ff078c9ed165134d042b0dd1fc16ebb2681c",
    (3, (3, 4)): "2654cd6d5900d610e8340e1f3e49daf39571952256b19245f0380857ec9ab8f2",
}

# Every entry moved again when adam_step kept its moments rescaled and
# folded the bias corrections into two scalars per step, which rounds
# the update differently in the last bits.
RESCALED_ADAM_MODEL_SHA256 = {
    (1, (3, 4)): "2ce49f8707178d138550006d1c9ec6fd61c2960ff58732fcfa5e5baa2618aacb",
    (4, (3,)): "8233a8a6181494265ef6257eefbb266f269ca16bca122c3c08d1502ff9c04a9d",
    (3, (3, 4)): "454eab5ae877e1f73aa11cc43db694cb1d5804781c87cebd0c815063ec4d49b3",
}

# Every entry moved again when training moved to float32: the model file
# stays float64 and holds the float32 values widened. The digests above
# are float64 training's, which the float64_training fixture restores.
FLOAT32_MODEL_SHA256 = {
    (1, (3, 4)): "c2047414579822623dec623d5b9edf3be2fe3c067a12c5c8c7160beb8963c889",
    (4, (3,)): "5a0c6c1dfb86a174c032c8e7af41d4bb51bb029d8981ed7bfd7e75588238f85a",
    (3, (3, 4)): "65f8d9cfde606a815cb2b256e99e820ac66ac7f53c3d33ee583afe3ed0f3c7d7",
}


def small_trained_model(k, sizes):
    ds = make_sine_task(n=12, k=k)
    net = lstm.init_network(1, sizes, seed=7)
    norm = NormParams(columns=("f0",), mins=np.array([0.1]), maxs=np.array([0.9]))
    config = lstm.TrainConfig(seed=7, batch_size=4, max_epochs=3, patience=None)
    return lstm.train(net, ds, ds, config, norm=norm), ds, config


@pytest.mark.parametrize("k, sizes", sorted(RECORDED_MODEL_SHA256))
def test_saved_bytes_match_record_and_load_into_one_buffer(float64_training, tmp_path, k, sizes):
    model, ds, config = small_trained_model(k, sizes)
    path = tmp_path / "m.bin"
    lstm.save_model(str(path), model)
    assert (hashlib.sha256(path.read_bytes()).hexdigest() == RESCALED_ADAM_MODEL_SHA256[(k, sizes)]
            ), recorded_with(MODEL_SHA256_BLAS_CORE)

    loaded = lstm.load_model(str(path))
    flat = loaded.network.flat
    assert flat.flags.c_contiguous
    assert flat.size == sum(p.size for p in loaded.network.params.values())
    for key, param in loaded.network.params.items():
        assert param.base is flat, key
        npt.assert_array_equal(param, model.network.params[key])
    want, _ = lstm.forward_batch(model.network, ds.inputs)
    got, _ = lstm.forward_batch(loaded.network, ds.inputs)
    npt.assert_array_equal(got, want)
    retrained = lstm.train(loaded.network, ds, ds, config, norm=loaded.norm)
    assert retrained.network.flat is flat
    assert all(math.isfinite(s.val_mse) for s in retrained.history)
    preds, _ = lstm.forward_batch(retrained.network, ds.inputs)
    assert np.all(np.isfinite(preds)) and not np.array_equal(preds, want)


@pytest.mark.parametrize("k, sizes", sorted(FLOAT32_MODEL_SHA256))
def test_float32_training_saved_bytes_match_record(tmp_path, k, sizes):
    model, _, _ = small_trained_model(k, sizes)
    path = tmp_path / "m.bin"
    lstm.save_model(str(path), model)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FLOAT32_MODEL_SHA256[(k, sizes)], (
        recorded_with(MODEL_SHA256_BLAS_CORE))


@pytest.mark.parametrize("k, sizes", sorted(RECORDED_MODEL_SHA256))
def test_textbook_adam_step_reproduces_stacked_bytes(
    float64_training, monkeypatch, tmp_path, k, sizes
):
    monkeypatch.setattr(lstm, "adam_step", textbook_adam_step)
    model, _, _ = small_trained_model(k, sizes)
    path = tmp_path / "m.bin"
    lstm.save_model(str(path), model)
    digest = STACKED_MODEL_SHA256.get((k, sizes), RECORDED_MODEL_SHA256[(k, sizes)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, recorded_with(
        MODEL_SHA256_BLAS_CORE)


@pytest.mark.parametrize("k, sizes", sorted(RECORDED_MODEL_SHA256))
def test_per_step_backward_reproduces_recorded_bytes(
    float64_training, monkeypatch, tmp_path, k, sizes
):
    monkeypatch.setattr(lstm, "backward", per_step_backward)
    monkeypatch.setattr(lstm, "adam_step", textbook_adam_step)
    model, _, _ = small_trained_model(k, sizes)
    path = tmp_path / "m.bin"
    lstm.save_model(str(path), model)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RECORDED_MODEL_SHA256[(k, sizes)], (
        recorded_with(MODEL_SHA256_BLAS_CORE))


def test_load_model_rejects_mismatched_parameters(tmp_path):
    model, _, _ = small_trained_model(1, (3,))
    path = tmp_path / "m.bin"
    lstm.save_model(str(path), model)
    magic, meta, rest = path.read_bytes().split(b"\n", 2)
    for edit, message in (({"sizes": [4]}, "misshaped"), ({"param_keys": ["w1"]}, "do not match")):
        bad = tmp_path / "bad.bin"
        changed = dict(json.loads(meta), **edit)
        bad.write_bytes(b"\n".join([magic, json.dumps(changed).encode(), rest]))
        with pytest.raises(ValueError, match=message):
            lstm.load_model(str(bad))
    short = tmp_path / "short.bin"
    short.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        lstm.load_model(str(short))


@pytest.mark.parametrize("which", ["mins", "maxs"])
@pytest.mark.parametrize("fault, message", [
    ("wrong length", "missing or misshaped"),
    ("int64", "missing or misshaped"),
    ("truncated", "is truncated"),
])
def test_load_model_checks_the_normalization_arrays(tmp_path, which, fault, message):
    model, _, _ = small_trained_model(1, (3,))
    path = tmp_path / "m.bin"
    lstm.save_model(str(path), model)
    magic, meta, rest = path.read_bytes().split(b"\n", 2)
    arrays = io.BytesIO(rest)
    ends = []
    for _ in range(2):
        np.load(arrays)
        ends.append(arrays.tell())
    lo, hi = (0, ends[0]) if which == "mins" else (ends[0], ends[1])
    good = getattr(model.norm, which)
    if fault == "truncated":
        replaced, tail = rest[lo : hi - 4], b""
    else:
        bad = np.zeros(good.size + 1) if fault == "wrong length" else good.astype(np.int64)
        buf = io.BytesIO()
        np.save(buf, bad, allow_pickle=False)
        replaced, tail = buf.getvalue(), rest[hi:]
    broken = tmp_path / "bad.bin"
    broken.write_bytes(b"\n".join([magic, meta, rest[:lo] + replaced + tail]))
    with pytest.raises(ValueError, match=f"normalization {which} {message}"):
        lstm.load_model(str(broken))


def test_train_logs_each_epoch_at_debug_level(caplog):
    ds = make_sine_task(n=12)
    net = lstm.init_network(1, (3,), seed=7)
    norm = NormParams(columns=("f0",), mins=np.zeros(1), maxs=np.ones(1))
    config = lstm.TrainConfig(seed=7, batch_size=4, max_epochs=3, patience=None)
    with caplog.at_level(logging.DEBUG, logger="coinseer.lstm"):
        model = lstm.train(net, ds, ds, config, norm=norm)
    lines = [r.getMessage() for r in caplog.records if r.name == "coinseer.lstm"]
    assert all(r.levelno == logging.DEBUG for r in caplog.records if r.name == "coinseer.lstm")
    assert lines == [
        f"epoch {s.epoch}: train MSE {s.train_mse:.6g}, validation MSE {s.val_mse:.6g}"
        for s in model.history
    ] + [f"best epoch {model.best_epoch} of 3"]


def test_predict_returns_price_units():
    ds = make_sine_task(n=10)
    net = lstm.init_network(1, (3,), seed=9)
    norm = NormParams(
        columns=("price_high", "f0"),
        mins=np.array([100.0, 0.0]),
        maxs=np.array([300.0, 1.0]),
    )
    model = lstm.TrainedModel(network=net, norm=norm, history=(), best_epoch=0)
    scaled, _ = lstm.forward_batch(net, ds.inputs)
    priced = lstm.predict(model, ds.inputs)
    npt.assert_allclose(priced, scaled * 200.0 + 100.0, rtol=1e-12)
