"""Dense kernels with hand-written backward passes.

Every primitive the encoder needs lives here as a ``*_forward`` /
``*_backward`` pair. Forward returns ``(out, cache)``; backward consumes the
cache plus the upstream gradient and returns gradients in input order. There
is no autodiff graph: callers compose backward passes by hand, in reverse.

Forward-only ``linear`` and ``gelu`` serve results no cache is kept for
(``gelu`` builds no slope): inference, and the encoder block's GELU, whose
backward reruns ``gelu_forward`` on the cached input.

Precision follows the inputs (float32 for training, float64 for gradient
checks); no kernel upcasts.
"""

from __future__ import annotations

import numpy as np

_SQRT_2_OVER_PI = 0.7978845608028654
_GELU_CUBIC = 0.044715


def assert_all_finite(name: str, x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def _gelu_tanh(x, x_sq):
    """tanh(sqrt(2/pi) * (x + 0.044715 * x^3)) in a new buffer, x^3 as
    x_sq * x."""
    t = x_sq * x
    t *= _GELU_CUBIC
    t += x
    t *= _SQRT_2_OVER_PI
    return np.tanh(t, out=t)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-form GELU, as in the BERT/ALBERT reference:
    x * 0.5 * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))). Forward only:
    no slope is built. Within 4.7e-4 of x * Phi(x), Phi the normal CDF
    (Hendrycks & Gimpel, arXiv 1606.08415)."""
    cdf = _gelu_tanh(x, x * x)
    cdf += 1.0
    cdf *= 0.5
    cdf *= x
    return cdf


def gelu_forward(x):
    """Returns (gelu(x), slope), bitwise the same output as gelu. The cache
    is the derivative slope = cdf + x * cdf' with
    cdf' = (1 + 3 * 0.044715 * x^2) * 0.5 * sqrt(2/pi) * (1 - t^2), t the
    tanh: the backward needs only that one array. Each step rounds as the
    closed forms do; the tanh buffer becomes the output."""
    slope = x * x
    t = _gelu_tanh(x, slope)
    slope *= 3.0 * _GELU_CUBIC
    slope += 1.0
    slope *= 0.5 * _SQRT_2_OVER_PI
    sech_sq = t * t
    np.subtract(1.0, sech_sq, out=sech_sq)
    slope *= sech_sq
    slope *= x
    t += 1.0
    t *= 0.5
    slope += t
    t *= x
    return t, slope


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

def linear(x, w, b):
    """x (..., n_in) @ w (n_in, n_out) + b, as one 2-D GEMM over all rows:
    numpy would run a 3-D x as a stack of small ones. The bias is added in
    place."""
    y = x.reshape(-1, x.shape[-1]) @ w
    y += b
    return y.reshape(*x.shape[:-1], w.shape[1])


def linear_forward(x, w, b):
    return linear(x, w, b), (x, w)


def linear_backward(cache, d_out):
    x, w = cache
    d_flat = d_out.reshape(-1, d_out.shape[-1])
    d_x = (d_flat @ w.T).reshape(x.shape)
    d_w = x.reshape(-1, x.shape[-1]).T @ d_flat
    return d_x, d_w, d_flat.sum(axis=0)


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

LAYER_NORM_EPS = 1e-12


def layer_norm_forward(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    if x.shape[-1] == 0:
        raise ValueError("layer_norm over zero-length last axis")
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    x_hat = centered * inv_std
    y = x_hat * gain + bias
    return y, (x_hat, inv_std, gain)


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

def softmax_forward(x):
    """Softmax over the last axis; the cache is the output."""
    p = x - x.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p, p


def softmax_backward(cache, d_out):
    p = cache
    return p * (d_out - (p * d_out).sum(axis=-1, keepdims=True))


IGNORE_INDEX = -100


def softmax_cross_entropy_with_grad(logits, target_ids, count=None):
    """Returns (loss, d_loss/d_logits): the summed negative log-probability
    over rows whose target != IGNORE_INDEX divided by `count`, and its
    gradient. `count` defaults to the number of those rows, giving their
    mean; a larger one makes this batch one part of a mean over more rows,
    and a part with no kept row then contributes zero. Stabilized by
    max-subtraction."""
    targets = np.asarray(target_ids)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValueError("logits must be (rows, classes) with one target per row")
    keep = targets != IGNORE_INDEX
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
