"""Dense kernels with hand-written backward passes.

Every primitive the encoder needs lives here as a ``*_forward`` /
``*_backward`` pair. Forward returns ``(out, cache)``; backward consumes the
cache plus the upstream gradient and returns gradients in input order. There
is no autodiff graph: callers compose backward passes by hand, in reverse.

Precision follows the inputs (float32 for training, float64 for gradient
checks); no kernel upcasts.
"""

from __future__ import annotations

import numpy as np
from scipy import special

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


def assert_all_finite(name: str, x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    return gelu_forward(x)[0]


def gelu_forward(x):
    """Returns (x * cdf, slope). The cache is the derivative
    slope = cdf + x * pdf, not the input: the backward needs only that one
    array, and building it here reuses the forward's cdf instead of a second
    erf. Each step rounds as the closed forms do, so output and slope are
    bitwise equal to them; the cdf buffer becomes the output."""
    cdf = x * _INV_SQRT2
    special.erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    slope = x * x
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI
    slope *= x
    slope += cdf
    cdf *= x
    return cdf, slope


def gelu_backward(cache, d_out):
    return d_out * cache


def tanh_forward(x):
    y = np.tanh(x)
    return y, y


def tanh_backward(cache, d_out):
    y = cache
    return d_out * (1.0 - y * y)


# ---------------------------------------------------------------------------
# linear / embedding
# ---------------------------------------------------------------------------

def linear_forward(x, w, b=None):
    """x (..., n_in) @ w (n_in, n_out) + b."""
    y = x @ w
    if b is not None:
        y = y + b
    return y, (x, w, b is not None)


def linear_backward(cache, d_out):
    x, w, has_bias = cache
    d_x = d_out @ w.T
    d_w = x.reshape(-1, x.shape[-1]).T @ d_out.reshape(-1, d_out.shape[-1])
    d_b = d_out.reshape(-1, d_out.shape[-1]).sum(axis=0) if has_bias else None
    return d_x, d_w, d_b


def embedding_forward(table, ids):
    """Row lookup: table (n, dim), ids any integer shape."""
    ids = np.asarray(ids)
    return table[ids], (table.shape, table.dtype, ids)


def embedding_backward(cache, d_out):
    shape, dtype, ids = cache
    d_table = np.zeros(shape, dtype=dtype)
    np.add.at(d_table, ids.reshape(-1), d_out.reshape(-1, shape[1]))
    return d_table


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def layer_norm_forward(x, gain, bias, eps=1e-12):
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    if x.shape[-1] == 0:
        raise ValueError("layer_norm over zero-length last axis")
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    y = x_hat * gain + bias
    return y, (x_hat, inv_std, gain)


def layer_norm(x, gain, bias, eps=1e-12):
    return layer_norm_forward(x, gain, bias, eps)[0]


def layer_norm_backward(cache, d_out):
    x_hat, inv_std, gain = cache
    n = x_hat.shape[-1]
    d_gain = (d_out * x_hat).reshape(-1, n).sum(axis=0)
    d_bias = d_out.reshape(-1, n).sum(axis=0)
    d_xhat = d_out * gain
    # dx = inv_std * (d_xhat - mean(d_xhat) - x_hat * mean(d_xhat * x_hat))
    d_x = inv_std * (
        d_xhat
        - d_xhat.mean(axis=-1, keepdims=True)
        - x_hat * (d_xhat * x_hat).mean(axis=-1, keepdims=True)
    )
    return d_x, d_gain, d_bias


# ---------------------------------------------------------------------------
# softmax / cross-entropy
# ---------------------------------------------------------------------------

def softmax_forward(x, axis=-1):
    p = x - x.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p, (p, axis)


def softmax(x, axis=-1):
    return softmax_forward(x, axis)[0]


def softmax_backward(cache, d_out):
    p, axis = cache
    return p * (d_out - (p * d_out).sum(axis=axis, keepdims=True))


IGNORE_INDEX = -100


def softmax_cross_entropy_with_grad(logits, target_ids, ignore_index=IGNORE_INDEX, count=None):
    """Returns (loss, d_loss/d_logits): the summed negative log-probability
    over rows whose target != ignore_index divided by `count`, and its
    gradient. `count` defaults to the number of those rows, giving their
    mean; a larger one makes this batch one part of a mean over more rows,
    and a part with no kept row then contributes zero. Stabilized by
    max-subtraction."""
    targets = np.asarray(target_ids)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValueError("logits must be (rows, classes) with one target per row")
    keep = targets != ignore_index
    n_keep = int(keep.sum())
    if count is None:
        count = n_keep
    if count == 0:
        raise ValueError("all rows ignored: mean loss undefined")
    if count < n_keep:
        raise ValueError(f"count {count} is below the {n_keep} rows kept")

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z

    rows = np.nonzero(keep)[0]
    picked = log_probs[rows, targets[rows]]
    loss = float(-picked.sum() / count)

    d_logits = np.exp(log_probs)
    d_logits[rows, targets[rows]] -= 1.0
    d_logits[~keep] = 0.0
    d_logits /= count
    return loss, d_logits.astype(logits.dtype, copy=False)
