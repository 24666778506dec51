"""Finite-difference verification of analytic gradients.

``max_grad_error`` compares hand-written backward passes against central
differences. The loss function under test must be deterministic and evaluated
in float64. Given a loss-only callable, the numeric side never touches the
analytic code path.
"""

from __future__ import annotations

import numpy as np

DEFAULT_STEP = 1e-5


def max_grad_error(fn, inputs, step=DEFAULT_STEP, floor=1e-3, loss=None):
    """Worst elementwise relative error between analytic and central-difference
    gradients; a check passes when it is below its tolerance.

    fn: callable taking a list of float64 arrays, returning
        (scalar loss, list of gradient arrays in input order).
    loss: callable taking the same list and returning the scalar loss
        alone, for the numeric side; fn's loss when None.
    Relative error per element is |a - n| / max(|a|, |n|, floor); the floor
    turns the test absolute for near-zero gradients, where central
    differences bottom out around 1e-10.
    """
    inputs = [np.asarray(x) for x in inputs]
    for x in inputs:
        if x.dtype != np.float64:
            raise ValueError("max_grad_error requires float64 inputs")
    if loss is None:
        def loss(xs):
            return fn(xs)[0]
    _, analytic = fn(inputs)
    worst = 0.0
    for i, x in enumerate(inputs):
        a = np.asarray(analytic[i])
        if a.shape != x.shape:
            raise ValueError(f"gradient {i} shape {a.shape} != input shape {x.shape}")
        flat = x.reshape(-1)
        a_flat = a.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = loss(inputs)
            flat[j] = orig - step
            down = loss(inputs)
            flat[j] = orig
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(a_flat[j]), abs(numeric), floor)
            worst = max(worst, abs(a_flat[j] - numeric) / denom)
    return worst
