"""Sine-activated MLP mapping a scalar time to a full log-intensity frame,
with bespoke differentiation.

Two derivative paths are wired by hand and cross-checked against finite
differences in the test suite:

* a forward-mode tangent pass propagating d/dt alongside the activations
  (one extra set of matmuls, exact for the scalar time input), and
* a reverse-mode pass through the joint (output, tangent) computation that
  yields parameter gradients of any loss built from both — the piece a
  derivative-supervised objective needs.

All arithmetic is float64. Layer l < L-1 computes a = sin(omega0 * (W x + b));
the output layer is affine. Initialization follows the sine-network
convention: first layer U(-1/n_in, 1/n_in), later layers
U(-sqrt(6/n_in)/omega0, +sqrt(6/n_in)/omega0), zero biases, so hidden
sine arguments keep unit-scale variance at init.

All parameters live in one flat vector, `params`: W0 (row-major, (n_out,
n_in)), b0, W1, b1, ... . Gradients and Adam moments share this layout,
which only `SirenModel.layers(vec)` knows. `weights` and `biases` are
read-only tuples of views into `params`: writing through a view changes the
model, and assigning an element raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    InvalidArchitecture,
    InvalidCheckpoint,
    NonFiniteGradient,
    NonFiniteOutput,
    ShapeMismatch,
)

CHECKPOINT_VERSION = 1


@dataclass
class ForwardCache:
    """Intermediates of one batched forward-with-tangent pass, consumed by
    the reverse pass."""

    x: np.ndarray  # (K, 1) inputs
    acts: list  # per sine layer: activations (K, n)
    acts_dot: list  # per sine layer: d(activation)/dt_norm (K, n)
    coss: list  # per sine layer: cos(omega0 * z) (K, n)
    zdots: list  # per sine layer: d(pre-activation)/dt_norm (K, n)


@dataclass
class SirenModel:
    """Parameters of the time -> frame network.

    t_domain maps physical seconds affinely onto the network input range
    [-1, 1]; tangents returned by forward_with_tangent are with respect to
    the normalized input (multiply by `time_slope` for per-second rates).
    """

    layer_sizes: list
    omega0: float
    params: np.ndarray  # flat float64 vector, see layers()
    height: int
    width: int
    t_domain: tuple

    @property
    def num_pixels(self) -> int:
        return self.height * self.width

    @property
    def time_slope(self) -> float:
        """d(t_norm)/d(t_seconds) of the affine input map."""
        lo, hi = self.t_domain
        return 2.0 / (hi - lo)

    def normalize_time(self, t_seconds) -> np.ndarray:
        lo, hi = self.t_domain
        return (np.asarray(t_seconds, dtype=np.float64) - lo) * (2.0 / (hi - lo)) - 1.0

    def layers(self, vec: np.ndarray | None = None) -> list:
        """Per-layer (W, b) views into vec (default: params); the one place
        that knows the parameter layout."""
        vec = self.params if vec is None else vec
        views, start = [], 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            stop = start + n_out * n_in
            views.append((vec[start:stop].reshape(n_out, n_in), vec[stop:stop + n_out]))
            start = stop + n_out
        if vec.shape != (start,):
            raise ShapeMismatch(f"parameter vector has shape {vec.shape}, layout needs ({start},)")
        return views

    @property
    def weights(self) -> tuple:
        return tuple(w for w, _ in self.layers())

    @property
    def biases(self) -> tuple:
        return tuple(b for _, b in self.layers())

    def num_parameters(self) -> int:
        return self.params.size

    def copy(self) -> "SirenModel":
        return replace(self, layer_sizes=list(self.layer_sizes), params=self.params.copy())

    # -- forward passes -----------------------------------------------------

    def _as_batch(self, t_norm) -> tuple[np.ndarray, bool]:
        t = np.asarray(t_norm, dtype=np.float64)
        scalar = t.ndim == 0
        return t.reshape(-1, 1), scalar

    def forward(self, t_norm) -> np.ndarray:
        """Frame(s) at normalized time(s): (H, W) for a scalar input,
        (K, H, W) for a length-K array."""
        x, scalar = self._as_batch(t_norm)
        *hidden, (w_out, b_out) = self.layers()
        a = x
        for w, b in hidden:
            a = np.sin(self.omega0 * (a @ w.T + b))
        y = a @ w_out.T + b_out
        if not np.all(np.isfinite(y)):
            raise NonFiniteOutput("forward pass produced NaN/Inf")
        y = y.reshape(-1, self.height, self.width)
        return y[0] if scalar else y

    def forward_with_tangent(self, t_norm, want_cache: bool = False):
        """(frame, dframe/dt_norm) at the given time(s); the frame matches
        forward() bit for bit. Optionally returns the cache for backward."""
        x, scalar = self._as_batch(t_norm)
        *hidden, (w_out, b_out) = self.layers()
        a = x
        a_dot = np.ones_like(x)
        acts, acts_dot, coss, zdots = [], [], [], []
        for w, b in hidden:
            z = a @ w.T + b
            z_dot = a_dot @ w.T
            c = np.cos(self.omega0 * z)
            a = np.sin(self.omega0 * z)
            a_dot = self.omega0 * c * z_dot
            acts.append(a)
            acts_dot.append(a_dot)
            coss.append(c)
            zdots.append(z_dot)
        y = a @ w_out.T + b_out
        y_dot = a_dot @ w_out.T
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_dot))):
            raise NonFiniteOutput("tangent pass produced NaN/Inf")
        shape = (self.height, self.width) if scalar else (-1, self.height, self.width)
        frame = y.reshape(shape)
        tangent = y_dot.reshape(shape)
        if want_cache:
            return frame, tangent, ForwardCache(x, acts, acts_dot, coss, zdots)
        return frame, tangent

    # -- reverse pass -------------------------------------------------------

    def backward(self, t_norm, dloss_dframe, dloss_dtangent=None, cache: ForwardCache | None = None):
        """Parameter gradients of
        loss = sum(dloss_dframe * frame) + sum(dloss_dtangent * tangent),
        where tangent is d frame / d t_norm. Returns one flat vector in
        the layout of params. Recomputes the forward pass unless a cache
        from forward_with_tangent(..., want_cache=True) is supplied.
        """
        x, _ = self._as_batch(t_norm)
        k = x.shape[0]
        gy = np.asarray(dloss_dframe, dtype=np.float64).reshape(k, -1)
        if gy.shape[1] != self.num_pixels:
            raise ShapeMismatch(
                f"dloss_dframe has {gy.shape[1]} pixels, model emits {self.num_pixels}"
            )
        if dloss_dtangent is None:
            gy_dot = np.zeros_like(gy)
        else:
            gy_dot = np.asarray(dloss_dtangent, dtype=np.float64).reshape(k, -1)
            if gy_dot.shape != gy.shape:
                raise ShapeMismatch("dloss_dtangent shape differs from dloss_dframe")
        if cache is None:
            _, _, cache = self.forward_with_tangent(t_norm, want_cache=True)
        elif cache.x.shape[0] != k:
            raise ShapeMismatch("cache batch size differs from t_norm")

        omega = self.omega0
        layers = self.layers()
        grads = np.empty_like(self.params)
        grad_layers = self.layers(grads)

        gw, gb = grad_layers[-1]
        np.matmul(gy.T, cache.acts[-1], out=gw)
        gw += gy_dot.T @ cache.acts_dot[-1]
        np.sum(gy, axis=0, out=gb)
        w_out = layers[-1][0]
        u = gy @ w_out
        u_dot = gy_dot @ w_out

        for l in range(len(layers) - 2, -1, -1):
            c = cache.coss[l]
            s = cache.acts[l]  # sin(omega * z)
            z_dot = cache.zdots[l]
            s_z = u * (omega * c) - u_dot * (omega * omega) * s * z_dot
            s_zdot = u_dot * (omega * c)
            a_prev = cache.acts[l - 1] if l > 0 else cache.x
            a_prev_dot = cache.acts_dot[l - 1] if l > 0 else np.ones_like(cache.x)
            gw, gb = grad_layers[l]
            np.matmul(s_z.T, a_prev, out=gw)
            gw += s_zdot.T @ a_prev_dot
            np.sum(s_z, axis=0, out=gb)
            if l > 0:
                w = layers[l][0]
                u = s_z @ w
                u_dot = s_zdot @ w

        if not np.all(np.isfinite(grads)):
            raise NonFiniteGradient("backward pass produced NaN/Inf")
        return grads


def _zero_model(layer_sizes, omega0, height, width, t_domain) -> SirenModel:
    """A network with all parameters zero, after checking the architecture."""
    sizes = [int(n) for n in layer_sizes]
    if len(sizes) < 2 or any(n < 1 for n in sizes):
        raise InvalidArchitecture(f"bad layer sizes {sizes}")
    if sizes[0] != 1:
        raise InvalidArchitecture("time-conditioned network needs exactly 1 input")
    if omega0 <= 0:
        raise InvalidArchitecture("omega0 must be positive")
    if height is None or width is None:
        height, width = 1, sizes[-1]
    if height * width != sizes[-1]:
        raise InvalidArchitecture(
            f"output size {sizes[-1]} does not match {height}x{width} frame"
        )
    lo, hi = t_domain
    if not hi > lo:
        raise InvalidArchitecture("t_domain must have positive length")
    count = sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))
    return SirenModel(sizes, float(omega0), np.zeros(count), height, width, (float(lo), float(hi)))


def init_siren(
    layer_sizes,
    omega0: float = 30.0,
    seed: int = 0,
    height: int | None = None,
    width: int | None = None,
    t_domain: tuple = (-1.0, 1.0),
) -> SirenModel:
    """Build a network with sine-net initialization, deterministic per seed.

    layer_sizes runs input through output, e.g. [1, 512, 512, 512, H*W].
    height/width default to a 1 x n_out frame when not given.
    """
    model = _zero_model(layer_sizes, omega0, height, width, t_domain)
    rng = np.random.default_rng(seed)
    for l, (w, _) in enumerate(model.layers()):
        n_in = w.shape[1]
        if l == 0:
            bound = 1.0 / n_in
        else:
            bound = np.sqrt(6.0 / n_in) / omega0
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return model


# -- Adam ------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments (flat, like the parameters) plus a stepwise exponential
    learning-rate schedule (lr *= decay_rate after every decay_every-th step)."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decay_rate: float = 1.0
    decay_every: int = 10

    @classmethod
    def for_params(cls, params, lr: float, **hyper) -> "AdamState":
        """Zero moments shaped like params; hyper overrides the defaults
        above (beta1, beta2, eps, decay_rate, decay_every)."""
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), step=0, lr=lr, **hyper)


def adam_step(state: AdamState, params, grads):
    """One in-place Adam update with bias correction; returns (params, state).

    The learning rate is multiplied by decay_rate after every
    decay_every-th step, so steps 1..10 use lr0, steps 11..20 use
    lr0*decay, and so on.
    """
    if not params.shape == grads.shape == state.m.shape:
        raise ShapeMismatch(f"params {params.shape}, grads {grads.shape}, state {state.m.shape}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * np.square(grads)
    params -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    if state.decay_rate != 1.0 and state.step % state.decay_every == 0:
        state.lr *= state.decay_rate
    return params, state


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(model: SirenModel, path) -> None:
    """Write an npz checkpoint that round-trips the model bit-exactly.

    Layout: version, layer_sizes, omega0, t_domain, height, width, and
    w{i}/b{i} arrays per layer.
    """
    arrays = {
        "version": np.asarray(CHECKPOINT_VERSION),
        "layer_sizes": np.asarray(model.layer_sizes, dtype=np.int64),
        "omega0": np.asarray(model.omega0, dtype=np.float64),
        "t_domain": np.asarray(model.t_domain, dtype=np.float64),
        "height": np.asarray(model.height, dtype=np.int64),
        "width": np.asarray(model.width, dtype=np.int64),
    }
    for i, (w, b) in enumerate(model.layers()):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    tmp.replace(path)


def load_checkpoint(path) -> SirenModel:
    """Read a save_checkpoint file; raises InvalidCheckpoint for another
    version, a missing array, or arrays whose shapes do not fit layer_sizes."""
    with np.load(path) as data:
        try:
            if int(data["version"]) != CHECKPOINT_VERSION:
                raise InvalidCheckpoint(f"{path}: unsupported version {int(data['version'])}")
            model = _zero_model(data["layer_sizes"], float(data["omega0"]), int(data["height"]),
                                int(data["width"]), tuple(float(v) for v in data["t_domain"]))
            for i, (w, b) in enumerate(model.layers()):
                for name, view in ((f"w{i}", w), (f"b{i}", b)):
                    stored = data[name]
                    if stored.shape != view.shape:
                        raise InvalidCheckpoint(
                            f"{path}: {name} has shape {stored.shape}, layer_sizes need {view.shape}")
                    view[...] = stored
        except KeyError as exc:
            raise InvalidCheckpoint(f"{path}: {exc.args[0]}") from None
    return model
