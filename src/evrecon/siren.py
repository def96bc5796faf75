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
pass [u; du/dt] by W. The reverse pass takes the forward pass's cache,
and seeds in the same layout: one array of dloss/dframe over
dloss/dtangent, which `training.objective` fills. Stacking along rows
leaves every output element's reduction unchanged, so the results are
bit-identical to one GEMM per half; `_matmul_rows` keeps separate GEMMs
for the small products where the BLAS would round them differently (see
`_STACK_MIN_WORK`). forward(), time_derivative() and backward() multiply
by the output layer, the widest, one `_row_blocks` block of rows at a
time, whatever the dtype.

Every pass computes in the dtype of `params`, which times, scratch
arrays, frames, tangents and gradients all follow. `init_siren` builds
float64 networks; `training.build_partitions` rounds each to float32 once,
and that model is trained, checkpointed and sampled. Layer l < L-1
computes a = sin(omega0 * (W x + b)); the output layer is affine.
Initialization follows the sine-network convention: first layer
U(-1/n_in, 1/n_in), later layers U(-sqrt(6/n_in)/omega0,
+sqrt(6/n_in)/omega0), zero biases, so hidden sine arguments keep
unit-scale variance at init.

All parameters live in one flat vector, `params`: W0 (row-major, (n_out,
n_in)), b0, W1, b1, ... . Gradients and Adam moments share this layout,
which only `SirenModel.layers(vec)` knows. `weights` and `biases` are
read-only tuples of views into `params`: writing through a view changes the
model, and assigning an element raises TypeError. `adam_step` updates
parameters and moments in place, BLOCK_PIXELS elements at a time, so the
working set of each pass stays in cache and no whole-vector temporary is
made.
"""

from __future__ import annotations

import math
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
from .metrics import BLOCK_PIXELS, blocks

CHECKPOINT_VERSION = 1

# OpenBLAS answers a GEMM with M*N*K <= 100**3 with small-matrix kernels
# that round differently from its blocked kernel, and numpy sends one-row
# products to GEMV. The blocked kernel gives every output element the same
# bits whatever M is, so value and tangent rows share one GEMM only where
# each half alone is past this size. Whether the split is also faster is
# unresolved: two sets of alternating `hires128` pairs (hidden width 64,
# split at T = 64 and 128) disagreed, 5.82 vs 6.38 s and 7.11 vs 6.59 s.
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


def _row_blocks(m: int, n: int, k: int) -> list:
    """Slices splitting the M rows of an (M, k) @ (k, n) product into
    blocks of about 16 * BLOCK_PIXELS output elements (2 MB of float32).
    Every block keeps at least 2 rows and more than _STACK_MIN_WORK
    multiply-adds, so the blocked kernel gives each element the bits of
    one whole GEMM; a product too small to split that way stays one block.
    That holds for float32, the dtype trained and sampled: float64 products
    split by rows can round some rows differently (hidden width 8, 17 rows
    of 33,123 pixels).
    Smaller blocks cost time: the 480 x 64 x 16384 product of the
    `hires128` benchmark took 22 ms whole, 32 ms in these blocks and 60 ms
    in blocks a quarter their size (2 vCPUs, OpenBLAS 0.3.31)."""
    least = max(2, _STACK_MIN_WORK // (n * k) + 1)
    count = max(1, min(m // least, -(-m * n // (16 * BLOCK_PIXELS))))
    bounds = [m * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


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

    def forward(self, t_norm, out=None) -> np.ndarray:
        """(K, H, W) frames at a batch of K normalized times; a 0-d time is
        a batch of one. `out`, a (K, num_pixels) array, receives the frames
        (widened, bias added in its dtype), and the returned frames are a
        view into it; without `out` they come in the dtype of params. The
        output layer runs one `_row_blocks` block of rows at a time, so a
        wider `out` needs only a block-sized temporary."""
        a = np.asarray(t_norm, dtype=self.params.dtype).reshape(-1, 1)
        *hidden, (w_out, b_out) = self.layers()
        for w, b in hidden:
            a = np.sin(self.omega0 * (a @ w.T + b))
        y = np.empty((len(a), len(w_out)), a.dtype) if out is None else out
        for rows in _row_blocks(len(a), *w_out.shape):
            np.matmul(a[rows], w_out.T, out=y[rows])
        y += b_out
        if not all_finite(y):
            raise NonFiniteOutput("forward pass produced NaN/Inf")
        return y.reshape(-1, self.height, self.width)

    def forward_with_tangent(self, t_norm, out=None):
        """(frames, dframes/dt_norm, cache) at a batch of K normalized
        times, like forward(): two (K, H, W) stacks and the cache that
        backward() takes. A float32 network's frames are bit for bit those
        of forward(); a float64 network's may differ in the last bits,
        because its stacked 2K-row GEMM can round rows differently from
        forward()'s row blocks. `out`, a (2K, num_pixels) array of the dtype
        of params, receives the K frame rows over the K tangent rows, and
        the returned stacks are views into it."""
        cache = self._hidden_with_tangent(t_norm)
        k = len(cache.inputs[0]) // 2
        w_out, b_out = self.layers()[-1]
        yy = _matmul_rows(cache.inputs[-1], w_out.T, k, out)
        yy[:k] += b_out
        if not all_finite(yy):
            raise NonFiniteOutput("tangent pass produced NaN/Inf")
        halves = yy.reshape(2, k, self.height, self.width)
        return halves[0], halves[1], cache

    def time_derivative(self, t_norm, out) -> np.ndarray:
        """(K, H, W) per-second derivatives of the frames at a batch of K
        normalized times, written into `out`, a (K, num_pixels) array: the
        tangents of forward_with_tangent (bit for bit for a float32
        network) times time_slope in the dtype of params. Only tangent
        rows are made, one `_row_blocks` block at a time."""
        cache = self._hidden_with_tangent(t_norm)
        k = len(cache.inputs[0]) // 2
        tangent_in = cache.inputs[-1][k:]
        w_out = self.layers()[-1][0]
        for rows in _row_blocks(k, *w_out.shape):
            tangents = tangent_in[rows] @ w_out.T
            if not all_finite(tangents):
                raise NonFiniteOutput("tangent pass produced NaN/Inf")
            np.multiply(tangents, self.time_slope, out=out[rows])
            del tangents  # before the next block's is made
        return out.reshape(-1, self.height, self.width)

    def _hidden_with_tangent(self, t_norm) -> ForwardCache:
        """The hidden layers of forward_with_tangent at a batch of K
        normalized times: the cache, whose last input is the output
        layer's [a; da/dt_norm]."""
        x = np.asarray(t_norm, dtype=self.params.dtype).reshape(-1, 1)
        k = len(x)
        omega = self.omega0
        act = np.concatenate([x, np.ones_like(x)])
        inputs, derivs = [act], []
        for w, b in self.layers()[:-1]:
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
        return ForwardCache(inputs, derivs)

    # -- reverse pass -------------------------------------------------------

    def backward(self, seeds, cache: ForwardCache):
        """Parameter gradients of
        loss = sum(seeds[:K] * frame) + sum(seeds[K:] * tangent),
        where frame, tangent and the batch size K are those of the
        forward_with_tangent call that made `cache`.
        Returns one flat vector in the layout of params.

        seeds holds 2K frames, the frame seeds over the tangent seeds
        (e.g. shape (2, K, H, W)), narrowed to the dtype of params. Seeds
        that already have that dtype are read in place, without a copy,
        and left unchanged.

        Weight gradients are made one `_row_blocks` block of rows at a
        time, so the tangent half's product needs a temporary of one block
        (2 MB for the 64x64 selftest network) rather than one the size of
        the output layer's weights.
        """
        k = len(cache.inputs[0]) // 2
        if np.size(seeds) != 2 * k * self.num_pixels:
            raise ShapeMismatch(
                f"seeds hold {np.size(seeds)} values, need 2 x {k} frames of {self.num_pixels}"
            )
        seeds = np.asarray(seeds, dtype=self.params.dtype).reshape(2 * k, self.num_pixels)

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
            for rows in _row_blocks(*gw.shape, k):
                g = np.matmul(uu[:k, rows].T, a[:k], out=gw[rows])
                g += uu[k:, rows].T @ a[k:]
            np.sum(uu[:k], axis=0, out=gb)
            if l > 0:
                uu = _matmul_rows(uu, layers[l][0], k)

        if not all_finite(grads):
            raise NonFiniteGradient("backward pass produced NaN/Inf")
        return grads


def _zero_model(layer_sizes, omega0, height, width, t_domain, dtype=np.float64) -> SirenModel:
    """A network with all parameters zero, after checking the architecture."""
    given = [float(n) for n in layer_sizes]
    if len(given) < 2 or not all(n >= 1 and n.is_integer() for n in given):
        raise InvalidArchitecture(f"bad layer sizes {given}: need two or more whole numbers >= 1")
    sizes = [int(n) for n in given]
    if sizes[0] != 1:
        raise InvalidArchitecture("time-conditioned network needs exactly 1 input")
    if not 0 < omega0 < math.inf:
        raise InvalidArchitecture(f"omega0 must be finite and positive, got {omega0}")
    if not all(n >= 1 and float(n).is_integer() for n in (height, width)):
        raise InvalidArchitecture(f"frame height {height} and width {width} must be whole "
                                  "numbers >= 1")
    height, width = int(height), int(width)
    if height * width != sizes[-1]:
        raise InvalidArchitecture(
            f"output size {sizes[-1]} does not match {height}x{width} frame"
        )
    domain = [float(t) for t in t_domain]
    if len(domain) != 2 or not -math.inf < domain[0] < domain[1] < math.inf:
        raise InvalidArchitecture(f"t_domain {domain} is not two finite times lo < hi")
    count = sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))
    return SirenModel(sizes, float(omega0), np.zeros(count, dtype), height, width, tuple(domain))


def init_siren(
    layer_sizes,
    omega0: float = 30.0,
    seed: int = 0,
    *,
    height: int,
    width: int,
    t_domain: tuple = (-1.0, 1.0),
) -> SirenModel:
    """Build a network with sine-net initialization, deterministic per seed.

    layer_sizes runs input through output, e.g. [1, 512, 512, 512, H*W],
    for frames of height x width pixels.
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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments (flat, like the parameters) plus a stepwise exponential
    learning-rate schedule (lr *= decay_rate after every decay_every-th
    step); betas and epsilon are the ADAM_* constants."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    decay_rate: float
    decay_every: int

    @classmethod
    def for_params(cls, params, lr: float, decay_rate: float = 1.0,
                   decay_every: int = 10) -> "AdamState":
        """Zero moments shaped like params."""
        return cls(np.zeros_like(params), np.zeros_like(params), 0, lr, decay_rate, decay_every)


def adam_step(state: AdamState, params, grads):
    """One in-place Adam update with bias correction; returns (params, state).

    params, grads and the moments are flat vectors of one dtype, updated
    in `blocks` of BLOCK_PIXELS elements through two chunk-sized arrays;
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
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.lr, ADAM_EPS
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    scratch = np.empty((2, min(params.size, BLOCK_PIXELS)), dtype=params.dtype)
    for chunk in blocks(params.size, 1):
        m, v, g = state.m[chunk], state.v[chunk], grads[chunk]
        step, denom = scratch[:, :len(g)]
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
        params[chunk] -= step
    if state.decay_rate != 1.0 and state.step % state.decay_every == 0:
        state.lr *= state.decay_rate
    return params, state


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(model: SirenModel, path) -> None:
    """Write an npz checkpoint that round-trips the model bit-exactly.

    Layout: version, layer_sizes, omega0, t_domain, height, width, and
    w{i}/b{i} arrays per layer, in the dtype of params.
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
    (which np.load returns without a context manager, hence TypeError).
    The file is opened here, so it is closed also when np.load fails on it."""
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            return {name: data[name] for name in data.files}
    except (zipfile.BadZipFile, EOFError, ValueError, TypeError) as exc:
        raise InvalidCheckpoint(f"{path}: not a readable npz archive ({exc})") from None


def load_checkpoint(path) -> SirenModel:
    """Read a save_checkpoint file into a model of the dtype of its w0,
    float32 or float64; raises InvalidCheckpoint for a file that is not a
    readable npz, another version, a missing array, metadata that is not
    a scalar where one is stored or that _zero_model rejects, or parameter
    arrays whose shapes do not fit layer_sizes or whose dtypes are not w0's."""
    data = _read_npz(path)
    try:
        if int(data["version"]) != CHECKPOINT_VERSION:
            raise InvalidCheckpoint(f"{path}: unsupported version {int(data['version'])}")
        if data["w0"].dtype not in (np.float32, np.float64):
            raise InvalidCheckpoint(f"{path}: w0 is {data['w0'].dtype}, need float32 or float64")
        model = _zero_model(data["layer_sizes"], float(data["omega0"]), float(data["height"]),
                            float(data["width"]), tuple(float(v) for v in data["t_domain"]),
                            data["w0"].dtype)
        for i, (w, b) in enumerate(model.layers()):
            for name, view in ((f"w{i}", w), (f"b{i}", b)):
                stored = data[name]
                if (stored.shape, stored.dtype) != (view.shape, view.dtype):
                    raise InvalidCheckpoint(f"{path}: {name} is {stored.dtype} {stored.shape}, "
                                            f"need {view.dtype} {view.shape}")
                view[...] = stored
    except KeyError as exc:
        raise InvalidCheckpoint(f"{path}: no array {exc.args[0]!r}") from None
    except InvalidCheckpoint:
        raise
    except (InvalidArchitecture, TypeError, ValueError, OverflowError) as exc:
        raise InvalidCheckpoint(f"{path}: {exc}") from None
    return model
