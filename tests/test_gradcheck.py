"""The finite-difference checker must accept correct gradients and reject
broken ones; otherwise every downstream gradient test is meaningless."""

import numpy as np
import pytest

from nanoalbert.gradcheck import DEFAULT_STEP, max_grad_error


def quadratic(inputs):
    # loss = 0.5 * sum(x^2), exact gradient x
    (x,) = inputs
    return 0.5 * float((x * x).sum()), [x.copy()]


def scaled_quadratic(scale):
    def fn(inputs):
        loss, (g,) = quadratic(inputs)
        return loss, [scale * g]
    return fn


def test_accepts_correct_gradient():
    x = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    assert max_grad_error(quadratic, [x]) < 1e-6


def test_rejects_one_percent_error():
    x = np.linspace(0.5, 2.0, 8)
    assert max_grad_error(scaled_quadratic(1.01), [x]) >= 1e-3


def test_max_error_scales_with_the_bug():
    x = np.array([1.0, 2.0, 3.0])
    err = max_grad_error(scaled_quadratic(1.10), [x])
    assert 0.05 < err < 0.15  # ~9% relative error for a 10% gradient bug


def test_requires_float64():
    with pytest.raises(ValueError, match="float64"):
        max_grad_error(quadratic, [np.ones(3, dtype=np.float32)])


def test_rejects_gradient_shape_mismatch():
    def bad_shape(inputs):
        return 0.0, [np.zeros(5)]

    with pytest.raises(ValueError, match="shape"):
        max_grad_error(bad_shape, [np.zeros(3)])


def test_floor_absorbs_tiny_gradients():
    # analytic gradient exactly zero; numeric is O(1e-12) noise. Without the
    # floor the relative error would be 1.0.
    def flat(inputs):
        return 7.0, [np.zeros_like(inputs[0])]

    assert max_grad_error(flat, [np.ones(4)]) < 1e-6


def test_nonlinear_function_needs_small_step():
    def cubic(inputs):
        (x,) = inputs
        return float((x ** 3).sum()), [3.0 * x ** 2]

    x = np.array([0.5, 1.5])
    assert max_grad_error(cubic, [x], step=DEFAULT_STEP) < 1e-6
    # a huge step makes the central difference visibly wrong for cubics
    assert max_grad_error(cubic, [x], step=0.5) > 1e-2


def test_multiple_inputs_checked_independently():
    def two(inputs):
        a, b = inputs
        return float((a * a).sum() + (3.0 * b).sum()), [2.0 * a, 3.0 * np.ones_like(b)]

    assert max_grad_error(two, [np.ones(3), np.ones(2)]) < 1e-6


def test_numeric_side_runs_the_loss_callable_alone():
    calls = []

    def gradients_only(inputs):
        # analytic side only: its loss is a constant the check must not use
        calls.append(1)
        return 0.0, [inputs[0].copy()]

    x = np.linspace(-1.0, 1.0, 5)
    assert max_grad_error(gradients_only, [x], loss=lambda inputs: quadratic(inputs)[0]) < 1e-6
    assert len(calls) == 1
    assert max_grad_error(gradients_only, [x]) >= 1e-6
