"""Minimal reverse-mode differentiation over double-precision arrays.

The engine is deliberately closed-world: it provides the predictor's
forward operations (``conv2d``, ``relu``), a few elementwise ops and
``mean`` with which gradient checks reduce an output to a scalar, a tape
that records them, a backward pass, an Adam optimizer, a checkpoint
format, and a finite-difference verification oracle. The fusion chain's
nodes (inverse warp, soft centres, loss) carry hand-derived adjoints and
register through ``_result``, as the ops here do.

``conv2d`` computes its image gradient, when an input needs one, as a
convolution of the zero-padded upstream gradient without a patch
matrix: the padded array sits in a flat buffer, in which each of the 9
taps reads a contiguous slice, and the result is 9 small gemms on those
slices. Its output and weight gradient have two kernels, chosen by the
input channel count. Below 16 (the predictor's first layer, 5 -> 16)
each is one gemm against the im2col patch matrix. From 16 each is 9
gemms on the shifted slices of the padded input. The shifted sums
regroup the patch-matrix sums: they differ by at most about 2e-15 of the
largest value in each result (1.8e-15 measured), and the bias gradient
is the same sum in both.

Everything is float64. NaN or Inf appearing in an op's output raises
immediately, naming the op; ``relu`` passes a NaN input through, so it
raises there too rather than turning it into 0.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TensorGradError",
    "ShapeError",
    "NonFiniteError",
    "Tensor",
    "Tape",
    "backward",
    "add",
    "subtract",
    "multiply",
    "scalar_divide",
    "conv2d",
    "relu",
    "euclidean_norm",
    "mean",
    "AdamState",
    "adam_step",
    "finite_difference_check",
    "save_checkpoint",
    "load_checkpoint",
]


class TensorGradError(Exception):
    """Base error for the differentiation engine."""


class ShapeError(TensorGradError):
    """Operands have incompatible shapes."""


class NonFiniteError(TensorGradError):
    """An op produced NaN or Inf."""


class Tensor:
    """A double-precision array with a gradient-participation flag.

    Tensors are value carriers only; the computation structure lives on
    the tape. Hashing is by identity, so tensors key gradient dicts.
    """

    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class _Node:
    inputs: tuple[Tensor, ...]
    output: Tensor
    vjp: "callable"
    name: str


class Tape:
    """Ordered record of executed operations, consumed once by backward."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def record(self, inputs, output: Tensor, vjp, name: str = "custom") -> None:
        """Register a node. ``vjp(grad_out)`` must return one gradient array
        (or None) per input, in order."""
        if self._consumed:
            raise TensorGradError("tape already consumed by a backward pass")
        self._nodes.append(_Node(tuple(inputs), output, vjp, name))


def _check_finite(values: np.ndarray, op: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteError(f"op '{op}' produced non-finite values")


def _result(tape: Tape | None, inputs, values, vjp, name: str) -> Tensor:
    """The output of op ``name``: checked finite, needing a gradient iff
    an input does, and then recorded on the tape (if any) with ``vjp``."""
    _check_finite(values, name)
    out = Tensor(values, requires_grad=any(t.requires_grad for t in inputs))
    if tape is not None and out.requires_grad:
        tape.record(inputs, out, vjp, name)
    return out


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# forward ops


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return _result(tape, (a, b), a.values + b.values, lambda g: (g, g), "add")


def subtract(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "subtract")
    return _result(tape, (a, b), a.values - b.values, lambda g: (g, -g), "subtract")


def multiply(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "multiply")
    av, bv = a.values, b.values
    return _result(tape, (a, b), av * bv, lambda g: (g * bv, g * av), "multiply")


def scalar_divide(tape: Tape | None, a: Tensor, s: float) -> Tensor:
    if s == 0:
        raise TensorGradError("scalar_divide: divisor is zero")
    return _result(tape, (a,), a.values / s, lambda g: (g / s,), "scalar_divide")


def relu(tape: Tape | None, a: Tensor) -> Tensor:
    x = a.values
    return _result(tape, (a,), np.maximum(x, 0.0), lambda g: (g * (x > 0),), "relu")


def _im2col(x: np.ndarray, pad: tuple) -> np.ndarray:
    """(C, H, W), zero-padded by pad = (top, bottom, left, right) -> the
    (C*9, H'*W') patch matrix of the 3x3 windows of the padded image,
    H' = H + top + bottom - 2 and W' = W + left + right - 2."""
    c, h, w = x.shape
    top, bottom, left, right = pad
    if any(pad):
        padded = np.zeros((c, h + top + bottom, w + left + right))
        padded[:, top:top + h, left:left + w] = x
    else:
        padded = x
    ho, wo = padded.shape[1] - 2, padded.shape[2] - 2
    cols = np.empty((c, 9, ho, wo))
    for ki in range(3):
        for kj in range(3):
            cols[:, ki * 3 + kj] = padded[:, ki:ki + ho, kj:kj + wo]
    return cols.reshape(c * 9, ho * wo)


def _pad_flat(x: np.ndarray, pad: tuple) -> tuple:
    """(C, H, W), zero-padded by pad = (top, bottom, left, right) -> a
    flat (C, Hp*Wp + 2) buffer of the padded image and its width Wp; the
    2 trailing zeros let the last tap read a whole slice."""
    c, h, w = x.shape
    top, bottom, left, right = pad
    hp, wp = h + top + bottom, w + left + right
    flat = np.zeros((c, hp * wp + 2))
    flat[:, :hp * wp].reshape(c, hp, wp)[:, top:top + h, left:left + w] = x
    return flat, wp


def _shifted_sum(taps: np.ndarray, flat: np.ndarray, wp: int, rows: int) -> np.ndarray:
    """sum over taps (ki, kj) of taps[3 ki + kj] @ the slice of ``flat``
    at offset ki*Wp + kj: the 3x3 cross-correlation of the padded image,
    as (C_out, rows, Wp), whose last 2 columns wrap around."""
    span = rows * wp
    out = taps[0] @ flat[:, :span]
    for k in range(1, 9):
        off = (k // 3) * wp + k % 3
        out += taps[k] @ flat[:, off:off + span]
    return out.reshape(-1, rows, wp)


def _image_gradient(g: np.ndarray, weight: np.ndarray, pad: tuple) -> np.ndarray:
    """The conv's image gradient, itself a stride-1 convolution: that of
    the upstream gradient, zero-padded by 2 - pad on each side, with the
    flipped kernel, its in and out channels swapped."""
    c_out, c_in = weight.shape[:2]
    top, bottom, left, right = pad
    h, w = g.shape[1] + 2 - top - bottom, g.shape[2] + 2 - left - right
    gp, wq = _pad_flat(g, (2 - top, 2 - bottom, 2 - left, 2 - right))
    flipped = np.ascontiguousarray(weight[:, :, ::-1, ::-1].transpose(2, 3, 1, 0))
    return _shifted_sum(flipped.reshape(9, c_in, c_out), gp, wq, h)[:, :, :w]


def _conv_im2col(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, pad: tuple):
    """Forward and vjp of the conv, the output and weight gradient as one
    gemm against the patch matrix."""
    c_out, c_in = weight.shape[:2]
    cols = _im2col(x, pad)
    y = weight.reshape(c_out, c_in * 9) @ cols + bias[:, None]
    ho, wo = x.shape[1] + pad[0] + pad[1] - 2, x.shape[2] + pad[2] + pad[3] - 2

    def vjp(g, need_gx):
        gmat = g.reshape(c_out, ho * wo)
        gx = _image_gradient(g, weight, pad) if need_gx else None
        return gx, (gmat @ cols.T).reshape(weight.shape), gmat.sum(axis=1)

    return y.reshape(c_out, ho, wo), vjp


def _conv_shifted(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, pad: tuple):
    """Forward and vjp of the conv as nine gemms on shifted slices, with
    no patch matrix. The input is zero-padded once into a flat buffer, in
    which tap (ki, kj) reads the contiguous slice at offset ki*Wp + kj;
    each output row so carries 2 wrap-around columns, which are dropped.
    The weight gradient pairs each tap's slice with the upstream
    gradient, made zero in the wrap-around columns."""
    c_out, c_in = weight.shape[:2]
    ho, wo = x.shape[1] + pad[0] + pad[1] - 2, x.shape[2] + pad[2] + pad[3] - 2
    xp, wp = _pad_flat(x, pad)
    taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(9, c_out, c_in)
    y = _shifted_sum(taps, xp, wp, ho)
    y += bias[:, None, None]        # on the contiguous buffer, before the wrap-around goes

    def vjp(g, need_gx):
        gx = _image_gradient(g, weight, pad) if need_gx else None
        g_ext = np.zeros((c_out, ho, wp))
        g_ext[:, :, :wo] = g
        g_ext = g_ext.reshape(c_out, ho * wp)
        gw = np.empty((c_out, c_in, 9))
        for k in range(9):
            off = (k // 3) * wp + k % 3
            gw[:, :, k] = g_ext @ xp[:, off:off + ho * wp].T
        return gx, gw.reshape(weight.shape), g.reshape(c_out, ho * wo).sum(axis=1)

    return y[:, :, :wo], vjp


# With 5 input channels the shifted slices measured 1.4-2.3x slower than
# the patch matrix; with 16, faster.
_SHIFTED_MIN_C_IN = 16


def conv2d(tape: Tape | None, x: Tensor, weight: Tensor, bias: Tensor,
           pad: tuple = (1, 1, 1, 1)) -> Tensor:
    """3x3 convolution, stride 1, zero padding ``pad`` = (top, bottom,
    left, right), each 0 or 1: (1, 1, 1, 1) keeps the size, 0 on a side
    runs "valid" there.

    x: (C_in, H, W), weight: (C_out, C_in, 3, 3), bias: (C_out,); the
    output is (C_out, H + top + bottom - 2, W + left + right - 2).

    With fewer than 16 input channels the output and weight gradient
    come from ``_conv_im2col``, from 16 from ``_conv_shifted``; the
    module docstring gives the bound between them.
    """
    if x.values.ndim != 3 or weight.values.ndim != 4 or weight.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d: bad operand shapes {x.shape}, {weight.shape}")
    c_in, h, w = x.shape
    c_out = weight.shape[0]
    if weight.shape[1] != c_in or bias.shape != (c_out,):
        raise ShapeError(f"conv2d: incompatible shapes {x.shape}, {weight.shape}, {bias.shape}")
    pad = tuple(pad)
    if len(pad) != 4 or any(p not in (0, 1) for p in pad):
        raise ShapeError(f"conv2d: pad must be four sides of 0 or 1, got {pad}")
    top, bottom, left, right = pad
    if h + top + bottom - 2 <= 0 or w + left + right - 2 <= 0:
        raise ShapeError(f"conv2d: input {x.shape} with pad {pad} leaves no output")
    kernel = _conv_shifted if c_in >= _SHIFTED_MIN_C_IN else _conv_im2col
    y, vjp = kernel(x.values, weight.values, bias.values, pad)
    # the predictor's input image needs no gradient
    return _result(tape, (x, weight, bias), y, lambda g: vjp(g, x.requires_grad), "conv2d")


def euclidean_norm(tape: Tape | None, x: Tensor) -> Tensor:
    """L2 norm of a vector, as a scalar tensor. Subgradient 0 at the origin."""
    xv = x.values
    n = float(np.linalg.norm(xv))

    def vjp(g):
        if n == 0.0:
            return (np.zeros_like(xv),)
        return (g * xv / n,)

    return _result(tape, (x,), np.float64(n), vjp, "euclidean_norm")


def mean(tape: Tape | None, x: Tensor) -> Tensor:
    """Arithmetic mean of all entries, as a scalar tensor."""
    size = x.size
    if size == 0:
        raise ShapeError("mean: empty tensor")
    y = x.values.mean()

    def vjp(g):
        return (np.full(x.shape, g / size),)

    return _result(tape, (x,), y, vjp, "mean")


# ---------------------------------------------------------------------------
# backward pass


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse sweep over the tape; returns gradients for every tensor
    that has requires_grad set. Each node is visited exactly once."""
    if loss.values.ndim != 0:
        raise TensorGradError(f"backward: loss must be scalar, got shape {loss.shape}")
    if tape._consumed:
        raise TensorGradError("backward: tape already consumed")
    tape._consumed = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    alive: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape._nodes):
        g_out = grads.pop(id(node.output), None)
        alive.pop(id(node.output), None)
        if g_out is None:
            continue
        g_ins = node.vjp(g_out)
        if len(g_ins) != len(node.inputs):
            raise TensorGradError(f"node '{node.name}' returned {len(g_ins)} gradients "
                                  f"for {len(node.inputs)} inputs")
        for t, g in zip(node.inputs, g_ins):
            if g is None:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = np.asarray(g, dtype=np.float64)
                alive[key] = t
    return {t: grads[key].reshape(t.shape) for key, t in alive.items() if t.requires_grad}


# ---------------------------------------------------------------------------
# finite-difference verification


def finite_difference_check(fn, point: Tensor, step: float = 1e-6) -> float:
    """Compare the taped gradient of ``fn`` against central differences.

    ``fn(tape, x)`` must build a scalar Tensor from ``x`` (deterministically).
    Returns max over components of |analytic - fd| / max(1, |analytic|).
    """
    if step <= 0:
        raise ValueError("finite_difference_check: step must be positive")
    x = Tensor(point.values.copy(), requires_grad=True)
    tape = Tape()
    out = fn(tape, x)
    if out.values.ndim != 0:
        raise TensorGradError("finite_difference_check: fn must return a scalar tensor")
    analytic = backward(tape, out).get(x)
    if analytic is None:
        analytic = np.zeros(x.shape)

    flat = x.values.reshape(-1)
    fd = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(None, x).item()
        flat[i] = orig - step
        lo = fn(None, x).item()
        flat[i] = orig
        fd[i] = (hi - lo) / (2.0 * step)

    a = analytic.reshape(-1)
    denom = np.maximum(1.0, np.abs(a))
    return float(np.max(np.abs(a - fd) / denom)) if flat.size else 0.0


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-parameter moment accumulators for the Adam update."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place on params and state.

    Parameters without a gradient entry are treated as zero-gradient.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.shape)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: gradient shape {g.shape} != param shape {p.shape} for '{name}'")
        m = state.m.setdefault(name, np.zeros(p.shape))
        v = state.v.setdefault(name, np.zeros(p.shape))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p.values -= update


# ---------------------------------------------------------------------------
# checkpoints: one-line JSON header, then little-endian float64 payload


def save_checkpoint(path, params: dict[str, Tensor], extra: dict | None = None) -> None:
    """Write parameters atomically: temp file in the target directory, then rename."""
    header = {
        "params": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
    payload = b"".join(
        np.ascontiguousarray(v.values, dtype="<f8").tobytes() for v in params.values()
    )
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict]:
    """Read a checkpoint; returns (params, extra-header-dict)."""
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise TensorGradError(f"checkpoint {path}: bad header: {e}") from e
        payload = f.read()
    entries = header.get("params") if isinstance(header, dict) else None
    if not isinstance(entries, list):
        raise TensorGradError(f"checkpoint {path}: header has no 'params' list")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise TensorGradError(f"checkpoint {path}: params[{i}] needs a 'name' string "
                                  "and a 'shape' list of sizes")
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise TensorGradError(f"checkpoint {path}: header 'extra' is not an object")
    params: dict[str, Tensor] = {}
    offset = 0
    for entry in entries:
        shape = tuple(entry["shape"])
        # exact integers: np.prod wraps at 2**64 and would pass a huge shape
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(payload):
            raise TensorGradError(f"checkpoint {path}: truncated payload at '{entry['name']}'")
        arr = np.frombuffer(payload[offset:offset + nbytes], dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise TensorGradError(f"checkpoint {path}: parameter '{entry['name']}' "
                                  "holds non-finite values")
        params[entry["name"]] = Tensor(arr, requires_grad=True)
        offset += nbytes
    if offset != len(payload):
        raise TensorGradError(f"checkpoint {path}: {len(payload) - offset} trailing bytes")
    return params, extra
