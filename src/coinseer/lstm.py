"""Stacked LSTM regressor built directly on numpy.

Layer l maps its input sequence to a hidden sequence through the usual
four gates (input, forget, cell candidate, output; sigmoid, sigmoid,
tanh, sigmoid) with zero initial hidden and cell states; the last
layer's final hidden state feeds a single linear output unit. Gate
weights are packed along one axis in i|f|g|o order. Gradients come from
full backpropagation through time: only the recurrent product stays in
the step loop, and each layer's weight, bias and input gradients are one
product (or sum) over all of its time steps.

All parameters live in one contiguous float64 buffer, laid out in
``param_shapes`` order (w1,u1,b1,w2,...,wd,bd); ``Network.params`` holds
named, reshaped views into it. The network, the model file and
``predict`` stay float64.

Training works on one packed copy of what the window length trains
(``_TrainingCopy``), and copies each epoch that improves the validation
loss into the network. The copy is the one place that sets the training
dtype (``_TRAINING_DTYPE``, float32): ``forward_batch``, ``backward``
and ``adam_step`` follow the dtype of the arrays they are given. Each
epoch is validated on the copy widened to float64, so its validation
MSE is the one the network computes once the epoch is copied into it.
For k > 1 the copy holds every parameter. With one-step windows (k=1)
the recurrent weights ``u*`` never act, because the initial hidden
state is zero, and neither does the forget gate, which only scales the
zero initial cell (Gers, Schmidhuber & Cummins 2000). So at k=1 the
copy holds each layer's i|g|o weights and biases followed by ``wd`` and
``bd``, and ``init_network`` told k=1 leaves ``u*`` undrawn at zero.
There is one forward, ``forward_batch``, and one backward,
``backward``: they read each layer's gate set from its weight width, so
they run the copy as they run the network. At k=1 every product runs
over i|g|o, the input gradient of each layer above the first included;
README "Models" says where that rounds otherwise than four gates do.

Training steps with Adam (Kingma & Ba 2015) over moments kept rescaled
by ``1/(1-beta)``, with the bias corrections folded into two scalars per
step (``AdamState``, ``adam_step``): algebraically the textbook step,
with fewer passes over memory, and equal to it in all but the last bits.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from datetime import date
from typing import BinaryIO, NamedTuple, Sequence

import numpy as np

from .dataset import NormParams, WindowedDataset, invert_minmax
from .signals import PRICE_COLUMN

ParamDict = dict[str, np.ndarray]
#: Parameter name -> (offset, shape) in the flat buffer.
Layout = dict[str, tuple[int, tuple[int, ...]]]

_MODEL_MAGIC = b"COINSEER-MODEL-1\n"

#: The dtype that training computes in: _TrainingCopy holds its arrays in
#: it, and TrainConfig bounds the learning rate by its range.
_TRAINING_DTYPE = np.float32

#: Elements per pass of adam_step: the chunks of p, g, m, v and one
#: scratch array (640 KiB in float32, 1.25 MiB in float64) stay inside a
#: 2 MiB L2 cache. In float32, chunks of 65,536 measured slower.
_CHUNK = 32768

log = logging.getLogger(__name__)


@dataclass
class Network:
    """Parameter container for one stacked-LSTM regressor.

    ``flat`` is the one zero-filled buffer that holds every parameter
    (see the module docstring); ``params`` maps each name to its view.
    """

    input_dim: int
    sizes: tuple[int, ...]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    params: ParamDict = field(init=False, repr=False, compare=False)
    _layout: Layout = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.sizes or any(h < 1 for h in self.sizes):
            raise ValueError("layer sizes must be positive")
        self._layout = _layout(param_shapes(self.input_dim, self.sizes))
        self.flat = np.zeros(sum(math.prod(shape) for _, shape in self._layout.values()))
        self.params = _views(self.flat, self._layout)


class LayerCache(NamedTuple):
    inputs: np.ndarray
    gates: np.ndarray
    cells: np.ndarray
    cell_tanh: np.ndarray
    hidden: np.ndarray


def param_shapes(input_dim: int, sizes: Sequence[int]) -> dict[str, tuple[int, ...]]:
    """Expected shape of every parameter array, in canonical order."""
    shapes: dict[str, tuple[int, ...]] = {}
    prev = input_dim
    for li, h in enumerate(sizes, start=1):
        shapes[f"w{li}"] = (prev, 4 * h)
        shapes[f"u{li}"] = (h, 4 * h)
        shapes[f"b{li}"] = (4 * h,)
        prev = h
    shapes["wd"] = (prev,)
    shapes["bd"] = (1,)
    return shapes


def _layout(shapes: dict[str, tuple[int, ...]]) -> Layout:
    """(offset, shape) of each parameter in a flat buffer, in ``shapes`` order."""
    layout: Layout = {}
    offset = 0
    for key, shape in shapes.items():
        layout[key] = (offset, shape)
        offset += math.prod(shape)
    return layout


def _locate(layout: Layout, index: int) -> tuple[str, int]:
    for key, (offset, shape) in layout.items():
        if offset <= index < offset + math.prod(shape):
            return key, index - offset
    raise IndexError(f"position {index} is outside the parameter buffer")


def _views(buffer: np.ndarray, layout: Layout) -> ParamDict:
    """Named views into ``buffer``."""
    return {
        key: buffer[offset : offset + math.prod(shape)].reshape(shape)
        for key, (offset, shape) in layout.items()
    }


def init_network(
    input_dim: int, sizes: Sequence[int] = (400, 800), seed: int = 0, k: int | None = None
) -> Network:
    """Glorot-uniform weights, zero biases except forget-gate biases at 1.

    ``k`` is the window length the network will see. At k=1 the recurrent
    weights ``u<l>`` never act, so they are not drawn and stay zero: the
    generator skips their draws (PCG64 takes one 64-bit draw per double),
    so every other parameter gets the bits of the full draw, and their
    pages are never written. Any other ``k`` draws every weight.
    """
    rng = np.random.default_rng(seed)
    net = Network(input_dim, tuple(sizes))
    params = net.params

    def uniform(key: str, lim: float) -> None:
        # numpy's own rng.uniform(-lim, lim) arithmetic, low + range·u, in
        # the same draw order, written straight into the parameter's view
        view = params[key]
        rng.random(out=view)
        view *= lim - (-lim)
        view += -lim

    prev = input_dim
    for li, h in enumerate(sizes, start=1):
        uniform(f"w{li}", math.sqrt(6.0 / (prev + 4 * h)))
        if k == 1:
            rng.bit_generator.advance(params[f"u{li}"].size)
        else:
            uniform(f"u{li}", math.sqrt(6.0 / (h + 4 * h)))
        params[f"b{li}"][h : 2 * h] = 1.0
        prev = h
    uniform("wd", math.sqrt(6.0 / (prev + 1)))
    return net


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def _cell_gate(net: Network, li: int, k: int) -> int:
    """Column where layer ``li``'s cell gate starts, read from the gate
    set its weight width holds: i|f|g|o (4h), or i|g|o (3h), which has no
    forget gate and so serves only k=1."""
    h = net.sizes[li - 1]
    width = net.params[f"w{li}"].shape[1]
    if width == 4 * h or (width == 3 * h and k == 1):
        return width - 2 * h
    raise ValueError(
        f"layer {li} has gate width {width} for {h} units: "
        f"i|f|g|o is {4 * h}, and i|g|o ({3 * h}) serves only k=1, not k={k}"
    )


def forward_batch(
    net: Network, windows: np.ndarray
) -> tuple[np.ndarray, tuple[LayerCache, ...]]:
    """Predictions for a batch of windows shaped (batch, k, input_dim).

    Each step's gate block is computed in place in the cache, and the
    recurrent state is read back from the previous step's cache slots.
    ``net`` is a Network or its ``_TrainingCopy``: each layer's gate set
    is read from its weight width (``_cell_gate``), and the forget term
    and ``u<l>`` are read only at t > 0. The windows are cast to, and the
    caches and predictions computed in, the dtype of ``net.flat``.
    """
    x = np.asarray(windows, dtype=net.flat.dtype)
    if x.ndim != 3 or x.shape[2] != net.input_dim:
        raise ValueError(f"windows must be (batch, k, {net.input_dim}), got {x.shape}")
    batch, k, _ = x.shape
    if k < 1:
        raise ValueError("empty window")
    layers: list[LayerCache] = []
    seq = x
    for li, h in enumerate(net.sizes, start=1):
        g0 = _cell_gate(net, li, k)
        w = net.params[f"w{li}"]
        b = net.params[f"b{li}"]
        gates = np.empty((batch, k, g0 + 2 * h), x.dtype)
        cells = np.empty((batch, k, h), x.dtype)
        cell_tanh = np.empty((batch, k, h), x.dtype)
        hidden = np.empty((batch, k, h), x.dtype)
        for t in range(k):
            z = gates[:, t]
            np.matmul(seq[:, t], w, out=z)
            z += b
            if t > 0:
                z += hidden[:, t - 1] @ net.params[f"u{li}"]
            _sigmoid(z[:, :g0], out=z[:, :g0])
            np.tanh(z[:, g0 : g0 + h], out=z[:, g0 : g0 + h])
            _sigmoid(z[:, g0 + h :], out=z[:, g0 + h :])
            gi, gg, go = z[:, :h], z[:, g0 : g0 + h], z[:, g0 + h :]
            c = cells[:, t]
            np.multiply(gi, gg, out=c)
            # at t=0 the forget term f * c_prev is +0.0 (or absent); adding
            # +0.0 keeps a -0.0 product from becoming a -0.0 cell
            c += z[:, h : 2 * h] * cells[:, t - 1] if t > 0 else 0.0
            np.tanh(c, out=cell_tanh[:, t])
            np.multiply(go, cell_tanh[:, t], out=hidden[:, t])
        layers.append(LayerCache(seq, gates, cells, cell_tanh, hidden))
        seq = hidden
    preds = seq[:, -1] @ net.params["wd"] + net.params["bd"][0]
    return preds, tuple(layers)


def backward(
    net: Network,
    layers: tuple[LayerCache, ...],
    d_preds: np.ndarray,
    out: np.ndarray | None = None,
) -> ParamDict:
    """Parameter gradients for upstream prediction gradients d_preds.

    Exact backpropagation through time over every layer and step. The
    t=0 recurrent terms are skipped because the initial states are zero,
    which makes those contributions identically zero.

    Only the recurrent product ``dh = dz @ u.T`` runs inside the step
    loop; it writes each step's gate gradient ``dz`` into a per-layer
    (batch, k, width) buffer, 4h wide, or 3h for a k=1 ``_TrainingCopy``
    (see ``_cell_gate``), which has no forget block to zero at t=0. After the
    loop, each layer's time-independent products run once over the
    stacked steps (Appleyard, Kočiský & Blunsom 2016): ``dw = Xᵀ DZ`` over
    batch·k rows, ``du = H_{t-1}ᵀ DZ`` over the batch·(k-1) rows of steps
    1..k-1, the input gradient ``DZ wᵀ``, and one sum for ``db``. With
    k=1 these are the per-step products themselves.

    Every element of the gradient is written into ``out`` (a new buffer
    when None), laid out like ``net.flat`` and of its dtype, to which
    ``d_preds`` and every working array follow; the result maps each name
    to its view of ``out``. With k=1 the recurrent weights never act, so
    a network's ``u<l>`` gradients are written as zeros (a k=1 training
    copy has no ``u<l>``).
    """
    dtype, size = net.flat.dtype, net.flat.size
    d = np.atleast_1d(np.asarray(d_preds, dtype=dtype))
    batch, k, _ = layers[0].inputs.shape
    if d.shape != (batch,):
        raise ValueError(f"d_preds must have shape ({batch},), got {d.shape}")
    flat = np.empty(size, dtype) if out is None else out
    if flat.shape != (size,) or flat.dtype != dtype:
        raise ValueError(f"gradient buffer must match the weights: {dtype} of shape ({size},)")
    grads = _views(flat, net._layout)
    last_hidden = layers[-1].hidden
    grads["wd"][...] = last_hidden[:, -1].T @ d
    grads["bd"][0] = d.sum()
    d_seq = np.zeros_like(last_hidden)
    d_seq[:, -1] = d[:, None] * net.params["wd"][None, :]
    for li in range(len(net.sizes), 0, -1):
        lc = layers[li - 1]
        h = net.sizes[li - 1]
        g0 = _cell_gate(net, li, k)
        dh = np.zeros((batch, h), dtype)
        dc = np.zeros((batch, h), dtype)
        dzs = np.empty((batch, k, g0 + 2 * h), dtype)
        for t in range(k - 1, -1, -1):
            dz = dzs[:, t]
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
                dz[:, h : 2 * h] = dc * lc.cells[:, t - 1] * gf * (1.0 - gf)
                dh = dz @ net.params[f"u{li}"].T
                dc = dc * gf
            elif g0 > h:
                dz[:, h : 2 * h] = 0.0
        stacked = dzs.reshape(batch * k, g0 + 2 * h)
        np.matmul(lc.inputs.reshape(batch * k, -1).T, stacked, out=grads[f"w{li}"])
        np.sum(stacked, axis=0, out=grads[f"b{li}"])
        if k > 1:
            h_prev = lc.hidden[:, :-1].reshape(-1, h)
            np.matmul(h_prev.T, dzs[:, 1:].reshape(-1, 4 * h), out=grads[f"u{li}"])
        elif f"u{li}" in grads:
            grads[f"u{li}"][...] = 0.0
        # the first layer's input gradient would reach only the data
        if li > 1:
            d_seq = (stacked @ net.params[f"w{li}"].T).reshape(lc.inputs.shape)
    return grads


class _TrainingCopy:
    """What k-step windows train of a network, packed into ``flat``.

    For k > 1 that is every parameter, laid out as in the network. At k=1
    it is each layer's i|g|o weights ``w<l>`` (in, 3h) and biases ``b<l>``
    (3h,), then ``wd`` and ``bd`` (see the module docstring). The copy
    carries what ``forward_batch`` and ``backward`` read of a network, so
    those two run it as they run the network. It holds its values, its
    gradient and Adam's moments (``spare``) in ``_TRAINING_DTYPE``, the
    one place that sets the training dtype. ``widened`` gives its values
    in float64, ``unpack`` writes them into the network and ``locate``
    names the network element of a position; the last two match each
    parameter to the network's by its shape.
    """

    def __init__(self, net: Network, k: int) -> None:
        self.net, self.input_dim, self.sizes = net, net.input_dim, net.sizes
        shapes = param_shapes(net.input_dim, net.sizes)
        if k == 1:  # less u<l>, with three gates' columns of four
            shapes = {
                key: shape if key in ("wd", "bd") else (*shape[:-1], shape[-1] // 4 * 3)
                for key, shape in shapes.items() if key[0] != "u"
            }
        self._layout = _layout(shapes)
        # One zeroed block for the copy and the three arrays train pairs
        # with it: the gradient and Adam's moments. As four arrays they
        # raised the peak resident size of a forked ablate worker that
        # trains one experiment after another (glibc's heap kept them in
        # pieces between experiments).
        size = sum(math.prod(s) for s in shapes.values())
        self.flat, *self.spare = np.zeros((4, size), _TRAINING_DTYPE)
        self.params = _views(self.flat, self._layout)
        for full, packed in self._pairs():
            packed[...] = full

    def _pairs(self):
        """(network, copy) views that together cover the copy."""
        for key, packed in self.params.items():
            full = self.net.params[key]
            if full.shape == packed.shape:
                yield full, packed
            else:
                h = packed.shape[-1] // 3
                yield full[..., :h], packed[..., :h]  # the i columns
                yield full[..., 2 * h :], packed[..., h:]  # the g|o columns

    def widened(self, twin: _TrainingCopy | None = None) -> _TrainingCopy:
        """The copy's values in float64, laid out as in the copy, for what
        must compute as the network does: the copy itself when it holds
        float64, else ``twin`` (a new one when None) rewritten from it."""
        if self.flat.dtype == np.float64:
            return self
        if twin is None:
            twin = object.__new__(_TrainingCopy)
            twin.__dict__.update(self.__dict__, flat=np.empty(self.flat.size), spare=[])
            twin.params = _views(twin.flat, self._layout)
        twin.flat[...] = self.flat
        return twin

    def unpack(self) -> None:
        """Write the copy into the network's parameters."""
        for full, packed in self._pairs():
            full[...] = packed

    def locate(self, index: int) -> tuple[str, int]:
        """Parameter name and network element index of position ``index``."""
        key, element = _locate(self._layout, index)
        full, packed = self.net.params[key], self.params[key]
        if full.shape == packed.shape:
            return key, element
        h = packed.shape[-1] // 3
        row, col = divmod(element, 3 * h)
        return key, row * 4 * h + col + (h if col >= h else 0)


#: Adam's moment decay rates and denominator offset (Kingma & Ba 2015).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """The training settings, declared and defaulted here alone. A rate
    is rejected if ``adam_step``'s largest step size (the limit of its
    ``alpha_t``), ``learning_rate*(1-BETA1)/sqrt(1-BETA2)``, exceeds the
    largest finite value of the training dtype: above about 1.08e38 in
    float32."""

    seed: int = 0
    batch_size: int = 16
    learning_rate: float = 0.001
    max_epochs: int = 20
    patience: int | None = 2

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        largest = float(np.finfo(_TRAINING_DTYPE).max) * math.sqrt(1.0 - BETA2) / (1.0 - BETA1)
        if self.learning_rate > largest:
            raise ValueError(f"learning_rate must be at most {largest:.4g} for "
                             f"{np.dtype(_TRAINING_DTYPE)} training, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be positive or None")


@dataclass
class AdamState:
    """Adam's moments, kept rescaled: ``m`` holds ``m/(1-BETA1)`` and ``v``
    holds ``v/(1-BETA2)`` of the textbook moments, so that each step adds
    the gradient and its square unscaled (see ``adam_step``). Both start
    at zero, as the textbook moments do."""

    m: ParamDict
    v: ParamDict


class NonFiniteGradient(ArithmeticError):
    """A gradient element is NaN or infinite; raised before any update."""

    def __init__(self, name: str, index: int) -> None:
        super().__init__(f"non-finite gradient for parameter {name} at element {index}")
        self.index = index


def adam_step(
    params: ParamDict,
    grads: ParamDict,
    state: AdamState,
    t: int,
    config: TrainConfig,
) -> tuple[ParamDict, AdamState]:
    """One bias-corrected update (Kingma & Ba 2015), in place on params and state.

    Every gradient is checked finite before anything changes. The update
    then runs over the rescaled moments of ``AdamState`` as in-place
    ufuncs over chunks of ``_CHUNK`` elements with one chunk-sized
    scratch array per parameter, ten passes per chunk:
    ``m' = BETA1*m' + g``, ``v' = BETA2*v' + g*g`` and
    ``p -= alpha_t * m' / (sqrt(v') + eps_t)``, where, with
    ``bc1 = 1 - BETA1**t``, ``bc2 = 1 - BETA2**t`` and
    ``r = sqrt((1-BETA2)/bc2)``, ``alpha_t = lr*(1-BETA1)/(bc1*r)`` and
    ``eps_t = EPS/r``. That is algebraically the textbook step
    ``p -= lr*(m/bc1) / (sqrt(v/bc2) + EPS)``, EPS included, with one
    array division and no bias-correction divisions. It rounds
    differently from the textbook arithmetic in the last bits (after 55
    steps of random gradients, by at most 1.4e-11 relative). Results do
    not depend on ``_CHUNK``. All arrays must be C-contiguous, and each
    parameter's gradient and moments must have its dtype, which its
    update computes in.
    """
    if t < 1:
        raise ValueError("step index starts at 1")
    arrays = []
    for key, p in params.items():
        quad = (p, grads[key], state.m[key], state.v[key])
        if any(a.shape != p.shape or not a.flags.c_contiguous for a in quad):
            raise ValueError(f"parameter {key}: arrays must be C-contiguous and alike in shape")
        if len({a.dtype for a in quad}) > 1:
            raise ValueError(f"parameter {key}: mixed dtypes {[a.dtype.name for a in quad]}")
        finite = np.isfinite(quad[1])
        if not finite.all():
            raise NonFiniteGradient(key, int(np.argmin(finite.reshape(-1))))
        arrays.append([a.reshape(-1) for a in quad])
    r = math.sqrt((1.0 - BETA2) / (1.0 - BETA2**t))
    alpha = config.learning_rate * (1.0 - BETA1) / ((1.0 - BETA1**t) * r)
    eps = EPS / r
    for p, g, m, v in arrays:
        scratch = np.empty(min(_CHUNK, p.size), p.dtype)
        for lo in range(0, p.size, _CHUNK):
            hi = min(lo + _CHUNK, p.size)
            pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            s = scratch[: hi - lo]
            mc *= BETA1
            mc += gc
            np.multiply(gc, gc, out=s)
            vc *= BETA2
            vc += s
            np.sqrt(vc, out=s)
            s += eps
            np.divide(mc, s, out=s)
            s *= alpha
            pc -= s
    return params, state


class EarlyStopper:
    """Tracks best validation loss; stops after ``patience`` flat epochs."""

    def __init__(self, patience: int | None) -> None:
        if patience is not None and patience < 1:
            raise ValueError("patience must be positive or None")
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.epoch = 0
        self.streak = 0

    def update(self, value: float) -> bool:
        """Record one epoch's validation loss; True if it improved."""
        self.epoch += 1
        if value < self.best:
            self.best = value
            self.best_epoch = self.epoch
            self.streak = 0
            return True
        self.streak += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.patience is not None and self.streak >= self.patience


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float


@dataclass
class TrainedModel:
    network: Network
    norm: NormParams
    history: tuple[EpochStats, ...]
    best_epoch: int
    k: int = 0
    j: int = 0
    train_end: date | None = None


def train(
    net: Network,
    fit_set: WindowedDataset,
    val_set: WindowedDataset,
    config: TrainConfig,
    *,
    norm: NormParams,
) -> TrainedModel:
    """Mini-batch ADAM with early stopping on validation MSE.

    Shuffles sample order each epoch from config.seed and averages
    gradients within each batch. Training runs in float32 on the
    ``_TrainingCopy`` of what ``fit_set``'s window length trains (see the
    module docstring): ``forward_batch`` reads the copy as it reads the
    network, ``backward`` writes the copy's gradient, and the copy's
    ``locate`` names the network element of a non-finite gradient. Each
    epoch's validation MSE is computed on the copy ``widened`` to float64,
    and each epoch that lowers it is copied into the passed network, so
    on return it holds the best epoch's parameters. At k=1 the recurrent
    weights (zero if ``init_network`` was told k=1) and the forget-gate
    columns keep their initial values; for k > 1 every parameter trains.
    If training raises (a non-finite gradient, or a diverged epoch), the
    network holds the best epoch so far, or its initial values if no
    epoch ended. Each epoch's MSEs and the best epoch are logged at debug
    level.
    """
    if fit_set.feature_names != val_set.feature_names:
        raise ValueError("fit and validation feature names differ")
    if fit_set.k != val_set.k:
        raise ValueError("fit and validation window sizes differ")
    if (n_features := len(fit_set.feature_names)) != net.input_dim:
        raise ValueError(f"network expects {net.input_dim} features, data has {n_features}")
    if len(fit_set) < 1 or len(val_set) < 1:
        raise ValueError("fit and validation sets must be nonempty")
    copy = _TrainingCopy(net, fit_set.k)
    grad, m, v = copy.spare
    rng = np.random.default_rng(config.seed)
    params, grads = {"copy": copy.flat}, {"copy": grad}
    state = AdamState(m={"copy": m}, v={"copy": v})
    stopper = EarlyStopper(config.patience)
    history: list[EpochStats] = []
    n = len(fit_set)
    step = 0
    wide = None
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        sse = 0.0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            preds, cache = forward_batch(copy, fit_set.inputs[idx])
            resid = preds - fit_set.targets[idx]
            sse += float(resid @ resid)
            backward(copy, cache, (2.0 / idx.size) * resid, out=grad)
            step += 1
            try:
                adam_step(params, grads, state, step, config)
            except NonFiniteGradient as exc:
                raise NonFiniteGradient(*copy.locate(exc.index)) from None
        wide = copy.widened(wide)
        val_preds, _ = forward_batch(wide, val_set.inputs)
        val_resid = val_preds - val_set.targets
        val_mse = float(val_resid @ val_resid) / val_resid.size
        if not math.isfinite(val_mse):
            raise ArithmeticError(f"training diverged at epoch {epoch}")
        history.append(EpochStats(epoch, sse / n, val_mse))
        log.debug("epoch %d: train MSE %.6g, validation MSE %.6g", epoch, sse / n, val_mse)
        if stopper.update(val_mse):
            copy.unpack()
        if stopper.should_stop:
            break
    log.debug("best epoch %d of %d", stopper.best_epoch, len(history))
    return TrainedModel(
        network=net,
        norm=norm,
        history=tuple(history),
        best_epoch=stopper.best_epoch,
        k=fit_set.k,
        j=fit_set.j,
        train_end=fit_set.anchor_dates[-1],
    )


def predict(model: TrainedModel, windows: np.ndarray) -> np.ndarray:
    """Forecasts in original price units for a batch of windows."""
    preds, _ = forward_batch(model.network, windows)
    return invert_minmax(preds, PRICE_COLUMN, model.norm)


def save_model(path: str, model: TrainedModel) -> None:
    """Serialize to a deterministic container: magic line, json meta line,
    then consecutive binary arrays (norm mins/maxs, parameters in key order)."""
    keys = sorted(model.network.params)
    meta = {
        "input_dim": model.network.input_dim,
        "sizes": list(model.network.sizes),
        "best_epoch": model.best_epoch,
        "history": [[s.epoch, s.train_mse, s.val_mse] for s in model.history],
        "norm_columns": list(model.norm.columns),
        "param_keys": keys,
        "k": model.k,
        "j": model.j,
        "train_end": None if model.train_end is None else model.train_end.isoformat(),
    }
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(json.dumps(meta, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        np.save(fh, model.norm.mins, allow_pickle=False)
        np.save(fh, model.norm.maxs, allow_pickle=False)
        for key in keys:
            np.save(fh, model.network.params[key], allow_pickle=False)


_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _read_into(fh: BinaryIO, out: np.ndarray, what: str) -> None:
    """Read one .npy array from ``fh`` straight into ``out``, which it must match."""
    reader = _NPY_HEADER_READERS.get(np.lib.format.read_magic(fh))
    if reader is None:
        raise ValueError(f"{what}: unsupported array format")
    shape, fortran_order, dtype = reader(fh)
    if shape != out.shape or fortran_order or dtype != out.dtype:
        raise ValueError(f"{what} missing or misshaped")
    if fh.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise ValueError(f"{what} is truncated")


def load_model(path: str) -> TrainedModel:
    """Inverse of save_model."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _MODEL_MAGIC:
            raise ValueError(f"{path}: not a model file")
        meta = json.loads(fh.readline().decode("utf-8"))
        columns = tuple(meta["norm_columns"])
        mins = np.empty(len(columns))
        maxs = np.empty(len(columns))
        _read_into(fh, mins, f"{path}: normalization mins")
        _read_into(fh, maxs, f"{path}: normalization maxs")
        net = Network(int(meta["input_dim"]), tuple(int(s) for s in meta["sizes"]))
        if sorted(meta["param_keys"]) != sorted(net.params):
            raise ValueError(f"{path}: parameter names do not match the layer sizes")
        for key in meta["param_keys"]:
            _read_into(fh, net.params[key], f"{path}: parameter {key}")
    norm = NormParams(columns=columns, mins=mins, maxs=maxs)
    history = tuple(
        EpochStats(int(e), float(tr), float(va)) for e, tr, va in meta["history"]
    )
    raw_end = meta.get("train_end")
    return TrainedModel(
        network=net,
        norm=norm,
        history=history,
        best_epoch=int(meta["best_epoch"]),
        k=int(meta.get("k", 0)),
        j=int(meta.get("j", 0)),
        train_end=None if raw_end is None else date.fromisoformat(raw_end),
    )
