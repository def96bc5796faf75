"""Sine-activated MLP mapping a scalar time to a full log-intensity frame,
with bespoke differentiation.

Two derivative paths are wired by hand and cross-checked against finite
differences in the test suite:

* a forward-mode tangent pass propagating d/dt alongside the activations
  (exact for the scalar time input), and
* a reverse-mode pass through the joint (output, tangent) computation that
  yields parameter gradients of any loss built from both — the piece a
  derivative-supervised objective needs.

Both passes keep value rows and tangent rows in one (2K, n) array per
layer, K value rows over K tangent rows, so each layer multiplies both by
its weights in one GEMM: the forward pass [a; da/dt] by W^T, the reverse
pass [u; du/dt] by W. The reverse pass takes its seeds in the same
layout: one array of dloss/dframe over dloss/dtangent, which
`training.objective` fills. Stacking along rows leaves every output
element's reduction unchanged, so the results are bit-identical to one
GEMM per half; `_matmul_rows` keeps separate GEMMs for the small products
where the BLAS would round them differently (see `_STACK_MIN_WORK`).

Every pass computes in the dtype of the parameter vector: times, scratch
arrays, frames, tangents and gradients all follow `params.dtype`. A float64
model (what `init_siren` and `load_checkpoint` build) computes in float64;
training runs one float32 copy, Adam moments included, and widens it back
at the end (see `training.train_partition`). Layer l < L-1 computes
a = sin(omega0 * (W x + b)); the output layer is affine. Initialization follows the sine-network
convention: first layer U(-1/n_in, 1/n_in), later layers
U(-sqrt(6/n_in)/omega0, +sqrt(6/n_in)/omega0), zero biases, so hidden
sine arguments keep unit-scale variance at init.

All parameters live in one flat vector, `params`: W0 (row-major, (n_out,
n_in)), b0, W1, b1, ... . Gradients and Adam moments share this layout,
which only `SirenModel.layers(vec)` knows. `weights` and `biases` are
read-only tuples of views into `params`: writing through a view changes the
model, and assigning an element raises TypeError. `adam_step` updates
parameters and moments in place, ADAM_CHUNK elements at a time, so the
working set of each pass stays in cache and no whole-vector temporary is
made.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DtypeMismatch,
    InvalidArchitecture,
    InvalidCheckpoint,
    NonFiniteGradient,
    NonFiniteOutput,
    ShapeMismatch,
)

CHECKPOINT_VERSION = 1
# Elements per cache-sized pass: six float32 slices (768 KiB) stay in L2.
# Adam works in chunks of it, and training.objective in blocks of whole
# frames of about this size.
ADAM_CHUNK = 1 << 15

# OpenBLAS answers a GEMM with M*N*K <= 100**3 with small-matrix kernels
# that round differently from its blocked kernel, and numpy sends one-row
# products to GEMV. The blocked kernel gives every output element the same
# bits whatever M is, so value and tangent rows share one GEMM only where
# each half alone is past this size.
_STACK_MIN_WORK = 100**3


def _matmul_rows(stacked: np.ndarray, w: np.ndarray, k: int, out=None) -> np.ndarray:
    """stacked @ w for a (2K, n) array of K value rows over K tangent rows:
    one GEMM when that is bit-identical to one GEMM per half, else two.
    Written into `out` when given."""
    if k > 1 and k * w.shape[0] * w.shape[1] > _STACK_MIN_WORK:
        return np.matmul(stacked, w, out=out)
    if out is None:
        out = np.empty((2 * k, w.shape[1]), dtype=np.result_type(stacked, w))
    np.matmul(stacked[:k], w, out=out[:k])
    np.matmul(stacked[k:], w, out=out[k:])
    return out


def all_finite(a: np.ndarray) -> bool:
    """True when `a` holds no NaN or Inf. The max propagates NaN and meets
    +Inf, the min meets -Inf, so no array-sized mask is made."""
    return a.size == 0 or bool(np.isfinite(a.max()) and np.isfinite(a.min()))


@dataclass
class ForwardCache:
    """Intermediates of one batched forward-with-tangent pass, consumed by
    the reverse pass. Each array holds K value rows over K tangent rows."""

    inputs: list  # per layer: its input [a; da/dt_norm] (2K, n_in); [t_norm; 1] first
    derivs: list  # per sine layer: [omega0 * cos(omega0 * z); dz/dt_norm] (2K, n)


@dataclass
class SirenModel:
    """Parameters of the time -> frame network.

    t_domain maps physical seconds affinely onto the network input range
    [-1, 1]; tangents returned by forward_with_tangent are with respect to
    the normalized input (multiply by `time_slope` for per-second rates).
    """

    layer_sizes: list
    omega0: float
    params: np.ndarray  # flat vector, see layers(); its dtype is the compute dtype
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

    def copy(self) -> "SirenModel":
        return replace(self, layer_sizes=list(self.layer_sizes), params=self.params.copy())

    # -- forward passes -----------------------------------------------------

    def _as_batch(self, t_norm) -> tuple[np.ndarray, bool]:
        t = np.asarray(t_norm, dtype=self.params.dtype)
        scalar = t.ndim == 0
        return t.reshape(-1, 1), scalar

    def forward(self, t_norm, out=None) -> np.ndarray:
        """Frame(s) at normalized time(s): (H, W) for a scalar input,
        (K, H, W) for a length-K array. `out`, a (K, num_pixels) array of
        the dtype of params, receives the frames, and the returned frames
        are a view into it."""
        x, scalar = self._as_batch(t_norm)
        *hidden, (w_out, b_out) = self.layers()
        a = x
        for w, b in hidden:
            a = np.sin(self.omega0 * (a @ w.T + b))
        y = np.matmul(a, w_out.T, out=out)
        y += b_out
        if not all_finite(y):
            raise NonFiniteOutput("forward pass produced NaN/Inf")
        y = y.reshape(-1, self.height, self.width)
        return y[0] if scalar else y

    def forward_with_tangent(self, t_norm, want_cache: bool = False, out=None):
        """(frame, dframe/dt_norm) at the given time(s); the frame matches
        forward() bit for bit. Optionally returns the cache for backward.
        `out`, a (2K, num_pixels) array of the dtype of params, receives
        the K frame rows over the K tangent rows, and the returned frame
        and tangent are views into it."""
        x, scalar = self._as_batch(t_norm)
        k = len(x)
        omega = self.omega0
        *hidden, (w_out, b_out) = self.layers()
        act = np.concatenate([x, np.ones_like(x)])
        inputs, derivs = [act], []
        for w, b in hidden:
            zz = _matmul_rows(act, w.T, k)
            z, z_dot = zz[:k], zz[k:]
            z += b
            z *= omega  # sine argument
            act = np.empty_like(zz)
            np.sin(z, out=act[:k])
            np.cos(z, out=z)
            z *= omega  # zz is now the cached [omega0 cos; dz/dt_norm]
            np.multiply(z, z_dot, out=act[k:])
            inputs.append(act)
            derivs.append(zz)
        yy = _matmul_rows(act, w_out.T, k, out)
        yy[:k] += b_out
        if not np.all(np.isfinite(yy)):
            raise NonFiniteOutput("tangent pass produced NaN/Inf")
        shape = (self.height, self.width) if scalar else (-1, self.height, self.width)
        frame = yy[:k].reshape(shape)
        tangent = yy[k:].reshape(shape)
        if want_cache:
            return frame, tangent, ForwardCache(inputs, derivs)
        return frame, tangent

    # -- reverse pass -------------------------------------------------------

    def backward(self, t_norm, seeds, cache: ForwardCache | None = None):
        """Parameter gradients of
        loss = sum(seeds[:K] * frame) + sum(seeds[K:] * tangent),
        where tangent is d frame / d t_norm. Returns one flat vector in
        the layout of params. Recomputes the forward pass unless a cache
        from forward_with_tangent(..., want_cache=True) is supplied.

        seeds holds 2K frames, the frame seeds over the tangent seeds
        (e.g. shape (2, K, H, W)), narrowed to the dtype of params. Seeds
        that already have that dtype are read in place, without a copy,
        and left unchanged.
        """
        x, _ = self._as_batch(t_norm)
        k = x.shape[0]
        if np.size(seeds) != 2 * k * self.num_pixels:
            raise ShapeMismatch(
                f"seeds hold {np.size(seeds)} values, need 2 x {k} frames of {self.num_pixels}"
            )
        seeds = np.asarray(seeds, dtype=self.params.dtype).reshape(2 * k, self.num_pixels)
        if cache is None:
            _, _, cache = self.forward_with_tangent(t_norm, want_cache=True)
        elif len(cache.inputs[0]) != 2 * k:
            raise ShapeMismatch("cache batch size differs from t_norm")

        omega = self.omega0
        layers = self.layers()
        grads = np.empty_like(self.params)
        grad_layers = self.layers(grads)

        # uu holds [dloss/dy; dloss/dy_dot] of the current layer's output y,
        # then, in place, [dloss/dz; dloss/dz_dot] of its pre-activation z.
        uu = seeds
        for l in range(len(layers) - 1, -1, -1):
            if l < len(layers) - 1:
                u, u_dot = uu[:k], uu[k:]
                omega_cos, z_dot = cache.derivs[l][:k], cache.derivs[l][k:]
                second = np.multiply(u_dot, omega * omega)
                second *= cache.inputs[l + 1][:k]  # sin(omega * z)
                second *= z_dot
                u *= omega_cos
                u -= second
                u_dot *= omega_cos
            a = cache.inputs[l]
            gw, gb = grad_layers[l]
            np.matmul(uu[:k].T, a[:k], out=gw)
            gw += uu[k:].T @ a[k:]
            np.sum(uu[:k], axis=0, out=gb)
            if l > 0:
                uu = _matmul_rows(uu, layers[l][0], k)

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

    params, grads and the moments are flat vectors of one dtype, updated
    ADAM_CHUNK elements at a time through two chunk-sized scratch arrays;
    each element sees the arithmetic of the textbook whole-vector update,
    in the same order, in that dtype. Raises DtypeMismatch when grads or
    the moments have another dtype than params. The learning rate is
    multiplied by decay_rate after every decay_every-th step, so steps
    1..10 use lr0, steps 11..20 use lr0*decay, and so on.
    """
    if not (params.ndim == 1 and params.shape == grads.shape == state.m.shape):
        raise ShapeMismatch(f"params {params.shape}, grads {grads.shape}, state {state.m.shape}")
    if not params.dtype == grads.dtype == state.m.dtype == state.v.dtype:
        raise DtypeMismatch(f"params {params.dtype}, grads {grads.dtype}, "
                            f"moments {state.m.dtype}/{state.v.dtype}")
    state.step += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    scratch = np.empty((2, min(params.size, ADAM_CHUNK)), dtype=params.dtype)
    for lo in range(0, params.size, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, params.size)
        m, v, g = state.m[lo:hi], state.v[lo:hi], grads[lo:hi]
        step, denom = scratch[:, :hi - lo]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=step)
        v *= b2
        np.square(g, out=step)
        v += np.multiply(step, 1.0 - b2, out=step)
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        params[lo:hi] -= step
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


def _read_npz(path) -> dict:
    """Every array of an npz archive; InvalidCheckpoint when the file is
    not one: truncated, not a zip, a corrupt member, or a bare .npy array
    (which np.load returns without a context manager, hence TypeError)."""
    try:
        with np.load(path) as data:
            return {name: data[name] for name in data.files}
    except (zipfile.BadZipFile, EOFError, ValueError, TypeError) as exc:
        raise InvalidCheckpoint(f"{path}: not a readable npz archive ({exc})") from None


def load_checkpoint(path) -> SirenModel:
    """Read a save_checkpoint file; raises InvalidCheckpoint for a file
    that is not a readable npz, another version, a missing array, or arrays
    whose shapes do not fit layer_sizes."""
    data = _read_npz(path)
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
        raise InvalidCheckpoint(f"{path}: no array {exc.args[0]!r}") from None
    return model
