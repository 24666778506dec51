"""Forward values and backward passes for the numeric primitives.

Expected numbers were computed by hand from the definitions. GELU is the
tanh form gelu(x) = x * c(x) with c(x) = 0.5 * (1 + tanh(u)),
u = sqrt(2/pi) * (x + 0.044715 * x^3). At x = 1, u = 0.7978845608028654 *
1.044715 = 0.8335619689391656 and tanh(u) = 0.6823839812165535, so
gelu(1) = 0.8411919906082768. As c(-x) = 1 - c(x), gelu(-1) = gelu(1) - 1 =
-0.15880800939172324. The slope is gelu'(x) = c(x) + x * c'(x) with
c'(x) = 0.5 * sqrt(2/pi) * (1 + 3 * 0.044715 * x^2) * (1 - tanh(u)^2):
gelu'(0) = 0.5, gelu'(1) = 0.8411919906082768 + 0.2417720932375058 =
1.0829640838457826 and gelu'(-1) = 1 - gelu'(1) = -0.08296408384578252. At
x = +-10, u = +-43.66 and tanh(u) rounds to +-1 in float64, so gelu(10) = 10
and gelu(-10) = 0 exactly. Cross-entropy of uniform two-way logits is ln 2.
"""

import math

import numpy as np
import pytest
from scipy import special

from nanoalbert.gradcheck import max_grad_error
from nanoalbert.ops import (
    IGNORE_INDEX,
    assert_all_finite,
    embedding_backward,
    embedding_forward,
    gelu,
    gelu_backward,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    linear,
    linear_backward,
    linear_forward,
    softmax_backward,
    softmax_cross_entropy_with_grad,
    softmax_forward,
    tanh_backward,
    tanh_forward,
)
from nanoalbert.rng import RngStream

LN2 = 0.6931471805599453


def randn(rng, *shape):
    # Box-Muller from the deterministic stream, float64 for grad checks
    u1 = rng.uniform_block(int(np.prod(shape, dtype=int)))
    u2 = rng.uniform_block(int(np.prod(shape, dtype=int)))
    z = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
    return z.reshape(shape)


# ---------------------------------------------------------------------------
# gelu / tanh
# ---------------------------------------------------------------------------

def test_gelu_known_values():
    x = np.array([0.0, 1.0, -1.0, 10.0, -10.0])
    y = gelu(x)
    assert y[0] == 0.0
    assert abs(y[1] - 0.8411919906082768) < 1e-12
    assert abs(y[2] - (-0.15880800939172324)) < 1e-12
    assert y[3] == 10.0
    assert y[4] == 0.0


def test_gelu_derivative_known_values():
    _, cache = gelu_forward(np.array([0.0, 1.0, -1.0]))
    d = gelu_backward(cache, np.ones(3))
    assert abs(d[0] - 0.5) < 1e-12
    assert abs(d[1] - 1.0829640838457826) < 1e-12
    assert abs(d[2] - (-0.08296408384578252)) < 1e-12


def test_gelu_is_within_5e4_of_exact_gelu():
    x = np.linspace(-8.0, 8.0, 160_001)
    exact = x * 0.5 * (1.0 + special.erf(x * math.sqrt(0.5)))
    assert np.abs(gelu(x) - exact).max() <= 5e-4


def test_gelu_preserves_float32():
    y = gelu(np.ones(4, dtype=np.float32))
    assert y.dtype == np.float32


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bitwise_equals_closed_forms(dtype):
    r = RngStream(11)
    x = (4.0 * randn(r, 64, 33)).astype(dtype)
    d = randn(r, 64, 33).astype(dtype)
    # python-float constants, as in ops, so float32 stays float32
    t = np.tanh(0.7978845608028654 * (x + 0.044715 * (x * x * x)))
    slope = 0.5 * (1.0 + t) + (
        (1.0 + 3.0 * 0.044715 * (x * x)) * (0.5 * 0.7978845608028654) * (1.0 - t * t) * x
    )
    y, cache = gelu_forward(x)
    assert_bitwise(y, x * (0.5 * (1.0 + t)))
    assert_bitwise(gelu_backward(cache, d), d * slope)
    # the forward-only entry builds no slope and gives the same bits
    assert_bitwise(gelu(x), y)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_kernels_leave_input_untouched(dtype):
    x = (3.0 * randn(RngStream(12), 6, 9)).astype(dtype)
    before = x.copy()
    softmax_forward(x)
    gelu_forward(x)
    assert_bitwise(x, before)


def test_tanh_backward_matches_identity():
    x = np.array([0.3, -1.2, 2.0])
    y, cache = tanh_forward(x)
    d = tanh_backward(cache, np.ones(3))
    assert np.allclose(y, np.tanh(x))
    assert np.allclose(d, 1.0 - np.tanh(x) ** 2)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def test_layer_norm_known_values():
    out = layer_norm_forward(np.array([[1.0, 2.0, 3.0]]), np.ones(3), np.zeros(3))[0]
    # (x - 2) / sqrt(2/3)
    assert np.allclose(out, [[-1.224744871, 0.0, 1.224744871]], atol=1e-6)


def test_layer_norm_constant_row_maps_to_bias():
    out = layer_norm_forward(np.zeros((2, 4)), 2.0 * np.ones(4), 5.0 * np.ones(4))[0]
    assert np.allclose(out, 5.0)


def test_layer_norm_rows_are_standardized():
    x = randn(RngStream(17), 8, 16)
    out = layer_norm_forward(x, np.ones(16), np.zeros(16))[0]
    assert np.abs(out.mean(axis=-1)).max() < 1e-7
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-6)


def test_layer_norm_zero_width_rejected():
    with pytest.raises(ValueError):
        layer_norm_forward(np.zeros((2, 0)), np.ones(0), np.zeros(0))


# ---------------------------------------------------------------------------
# softmax / cross-entropy
# ---------------------------------------------------------------------------

def test_softmax_known_values():
    assert np.allclose(softmax_forward(np.array([[0.0, 0.0]]))[0], [[0.5, 0.5]])
    assert np.allclose(softmax_forward(np.array([[0.0, np.log(3.0)]]))[0], [[0.25, 0.75]])


def test_softmax_rows_sum_to_one():
    x = 10.0 * randn(RngStream(4), 32, 50)
    assert np.abs(softmax_forward(x)[0].sum(axis=-1) - 1.0).max() < 1e-9


def test_softmax_shift_invariance_and_overflow_safety():
    x = np.array([[1000.0, 1001.0, 999.0]])
    p = softmax_forward(x)[0]
    assert np.all(np.isfinite(p))
    assert np.allclose(p, softmax_forward(x - 1000.0)[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_bitwise_equals_closed_form(dtype):
    x = (10.0 * randn(RngStream(13), 8, 3, 20)).astype(dtype)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert_bitwise(softmax_forward(x)[0], e / e.sum(axis=-1, keepdims=True))


def test_cross_entropy_known_values():
    assert abs(softmax_cross_entropy_with_grad(np.zeros((1, 2)), [0])[0] - LN2) < 1e-12
    loss = softmax_cross_entropy_with_grad(np.array([[2.0, 0.0]]), [0])[0]
    assert abs(loss - 0.12692801104297263) < 1e-12


def test_cross_entropy_gradient_known_values():
    _, d = softmax_cross_entropy_with_grad(np.zeros((1, 2)), [0])
    assert np.allclose(d, [[-0.5, 0.5]])


def test_cross_entropy_ignored_rows():
    logits = np.array([[0.0, 0.0], [7.0, -7.0]])
    loss, d = softmax_cross_entropy_with_grad(logits, [0, IGNORE_INDEX])
    assert abs(loss - LN2) < 1e-12  # only the first row counts
    assert np.all(d[1] == 0.0)


def test_cross_entropy_all_ignored_rejected():
    with pytest.raises(ValueError, match="all rows ignored"):
        softmax_cross_entropy_with_grad(np.zeros((2, 3)), [IGNORE_INDEX, IGNORE_INDEX])


def test_cross_entropy_parts_with_count_sum_to_whole_batch():
    r = np.random.default_rng(5)
    logits = r.normal(size=(9, 4))
    targets = np.array([1, IGNORE_INDEX, 3, 0, IGNORE_INDEX, 2, 2, IGNORE_INDEX, 1])
    loss, d = softmax_cross_entropy_with_grad(logits, targets)
    # parts as a length sort would cut them; the first keeps no row at all
    parts = [np.array([1, 4]), np.array([0, 7, 2]), np.array([8, 3, 5, 6])]
    losses, d_parts = np.zeros(3), np.zeros_like(d)
    for i, rows in enumerate(parts):
        losses[i], d_parts[rows] = softmax_cross_entropy_with_grad(
            logits[rows], targets[rows], count=6)
    assert losses[0] == 0.0 and not d_parts[parts[0]].any()
    assert abs(losses.sum() - loss) < 1e-12
    assert np.abs(d_parts - d).max() < 1e-15
    with pytest.raises(ValueError, match="all rows ignored"):
        softmax_cross_entropy_with_grad(logits[:2], [IGNORE_INDEX, IGNORE_INDEX], count=0)
    with pytest.raises(ValueError, match="count 1 is below the 2 rows kept"):
        softmax_cross_entropy_with_grad(logits[:2], [0, 1], count=1)


def test_cross_entropy_shape_validation():
    with pytest.raises(ValueError):
        softmax_cross_entropy_with_grad(np.zeros((2, 3)), [0])
    with pytest.raises(ValueError):
        softmax_cross_entropy_with_grad(np.zeros(3), [0])


# ---------------------------------------------------------------------------
# linear / embedding
# ---------------------------------------------------------------------------

def test_linear_forward_known_values():
    x = np.array([[1.0, 2.0]])
    w = np.array([[1.0, 0.0], [0.0, 3.0]])
    y, _ = linear_forward(x, w, np.array([10.0, 20.0]))
    assert np.allclose(y, [[11.0, 26.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_on_3d_input_equals_its_rows_as_2d_bitwise(dtype):
    r = RngStream(14)
    w, b = randn(r, 16, 24).astype(dtype), randn(r, 24).astype(dtype)
    full = randn(r, 3, 10, 32).astype(dtype)
    # contiguous, then views with strided rows and with a cut last axis
    for x in (np.ascontiguousarray(full[..., :16]), full[:, ::2, 16:], full[..., 8:24]):
        rows = np.ascontiguousarray(x).reshape(-1, 16)
        y, cache = linear_forward(x, w, b)
        y_rows, rows_cache = linear_forward(rows, w, b)
        assert y.shape == (*x.shape[:-1], 24)
        assert_bitwise(y.reshape(-1, 24), y_rows)
        assert_bitwise(linear(x, w, b), y)
        d_out = randn(r, *y.shape).astype(dtype)
        d_x, d_w, d_b = linear_backward(cache, d_out)
        d_rows, d_w_rows, d_b_rows = linear_backward(rows_cache, d_out.reshape(-1, 24))
        assert d_x.shape == x.shape
        assert_bitwise(d_x.reshape(-1, 16), d_rows)
        assert_bitwise(d_w, d_w_rows)
        assert_bitwise(d_b, d_b_rows)


def test_embedding_gathers_rows():
    table = np.arange(6.0).reshape(3, 2)
    out, _ = embedding_forward(table, [[2, 0], [1, 1]])
    assert np.allclose(out, [[[4.0, 5.0], [0.0, 1.0]], [[2.0, 3.0], [2.0, 3.0]]])


def test_embedding_backward_accumulates_repeats():
    table = np.zeros((3, 2))
    _, cache = embedding_forward(table, [0, 0, 1])
    d_table = embedding_backward(cache, np.ones((3, 2)))
    assert np.allclose(d_table, [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# finite-difference checks (the acceptance test repeats these over 20 seeds)
# ---------------------------------------------------------------------------

def quadratic_readout(y):
    # reduce any array to a scalar with a non-trivial, smooth gradient
    return 0.5 * float((y * y).sum()), y


def test_linear_gradients():
    for seed in range(5):
        r = RngStream(seed)
        x, w, b = randn(r, 3, 4), randn(r, 4, 5), randn(r, 5)

        def fn(inputs):
            y, cache = linear_forward(*inputs)
            loss, d_y = quadratic_readout(y)
            return loss, list(linear_backward(cache, d_y))

        assert max_grad_error(fn, [x, w, b]) < 1e-4


def test_gelu_gradients():
    for seed in range(5):
        x = randn(RngStream(seed), 6, 3)

        def fn(inputs):
            y, cache = gelu_forward(inputs[0])
            loss, d_y = quadratic_readout(y)
            return loss, [gelu_backward(cache, d_y)]

        assert max_grad_error(fn, [x]) < 1e-4


def test_layer_norm_gradients():
    for seed in range(5):
        r = RngStream(seed)
        x, gain, bias = randn(r, 4, 6), 1.0 + 0.1 * randn(r, 6), 0.1 * randn(r, 6)

        def fn(inputs):
            y, cache = layer_norm_forward(*inputs)
            loss, d_y = quadratic_readout(y)
            return loss, list(layer_norm_backward(cache, d_y))

        assert max_grad_error(fn, [x, gain, bias]) < 1e-4


def test_softmax_gradients():
    weights = randn(RngStream(500), 4, 7)  # fixed projection to a scalar
    for seed in range(5):
        x = randn(RngStream(seed), 4, 7)

        def fn(inputs):
            p, cache = softmax_forward(inputs[0])
            loss = float((p * weights).sum())
            return loss, [softmax_backward(cache, weights)]

        assert max_grad_error(fn, [x]) < 1e-4


def test_cross_entropy_gradients():
    for seed in range(5):
        logits = randn(RngStream(seed), 5, 9)
        targets = [1, 4, IGNORE_INDEX, 0, 8]

        def fn(inputs):
            loss, d = softmax_cross_entropy_with_grad(inputs[0], targets)
            return loss, [d]

        assert max_grad_error(fn, [logits]) < 1e-4


def test_embedding_gradients():
    ids = np.array([[0, 2], [2, 1]])
    for seed in range(5):
        table = randn(RngStream(seed), 4, 3)

        def fn(inputs):
            y, cache = embedding_forward(inputs[0], ids)
            loss, d_y = quadratic_readout(y)
            return loss, [embedding_backward(cache, d_y)]

        assert max_grad_error(fn, [table]) < 1e-4


def test_tanh_gradients():
    for seed in range(5):
        x = randn(RngStream(seed), 5, 4)

        def fn(inputs):
            y, cache = tanh_forward(inputs[0])
            loss, d_y = quadratic_readout(y)
            return loss, [tanh_backward(cache, d_y)]

        assert max_grad_error(fn, [x]) < 1e-4


# ---------------------------------------------------------------------------
# finiteness guard
# ---------------------------------------------------------------------------

def test_assert_all_finite():
    assert_all_finite("ok", np.ones(3))
    with pytest.raises(FloatingPointError, match="bad_tensor"):
        assert_all_finite("bad_tensor", np.array([1.0, np.nan]))
    with pytest.raises(FloatingPointError):
        assert_all_finite("inf_tensor", np.array([np.inf]))
