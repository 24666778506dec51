"""ALBERT-style encoder on plain numpy arrays.

The layout: token/position/type embeddings at size E, layer-normed and
projected to hidden size H, then one transformer block (post-norm residual
order, GELU feed-forward) applied L times with a single shared parameter
set. GELU is the tanh form of the BERT/ALBERT reference. Heads: tied-weight
masked-LM decoder back to the vocabulary, a tanh pooler feeding the
sentence-order classifier, and an optional per-token linear tagger.

Parameters live in a flat name -> ndarray dict. Each linear and layer
norm names its tensors once, by its forward/backward pair (_linear,
_norm): the forward reads {name}_weight/_bias (or _gain/_bias) and the
backward adds their gradients under the same name. The forward keeps its
caches only in a list a training loss passes in, and every backward adds
in place into one zero-filled gradient dict (zero_grads), summing the
shared block's L applications. The caches hold only what the backward
cannot cheaply rebuild: a layer's input, its attention norm's output and
its GELU output and slope are recomputed there, with the forward's own
ops, so they have the forward's bits. Inference keeps no cache and
computes no GELU slope.

One rule cuts every batch (length_parts) and one runner walks it
(map_parts): length-sorted parts, each trimmed to its longest row, so
padding is never computed and activations do not grow with the batch.
map_parts runs part i on lane i % 2: lane 0 on the calling thread takes
its parts shortest first, and lane 1 on one worker thread takes part 1 and
then its others longest first, so the two longest are not in flight
together. PART_POSITIONS = 192 bounds the positions of the two parts in
flight: each part holds at most half (and, in inference, an eval batch of
rows). A training part holds at its forward's end until the other lane's
first part has finished its forward too (Lane.hold), so a step of any size
reaches the same two-part peak. Each run reads OpenBLAS's thread count
(--threads, the environment or the core count): at 2 or more the lanes run
at once with BLAS pinned to one thread until they are done, at 1 they run
one after the other. Either way BLAS runs on one thread, so no result
depends on the core count. After lanes that ran at once, what lane 1 freed
goes back to the system (malloc_trim), since the calling thread cannot
reuse its thread's arena.
A training step's parts, each divided by the whole step's count, add into
one gradient dict per lane, and lane 1's dict is then added into lane 0's
(add_lanes). The pretraining pass also counts its SOP hits, so held-out SOP
accuracy needs no second forward.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .rng import RngStream

NEG_INF = -1e9
INIT_STD = 0.02
INIT_CLIP_SIGMA = 2.0
PART_POSITIONS = 192  # rows x trimmed length of the parts in flight: bounds their activations
LANES = 2  # map_parts: lane 0 on the calling thread, lane 1 on one worker thread


@dataclass
class ModelConfig:
    vocab_size: int
    embedding_size: int
    hidden_size: int
    num_layers: int
    num_heads: int
    intermediate_size: int = 0  # 0 means 4 * hidden_size
    max_positions: int = 512
    type_vocab_size: int = 2

    def __post_init__(self):
        if self.intermediate_size == 0:
            self.intermediate_size = 4 * self.hidden_size
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        if self.embedding_size > self.hidden_size:
            raise ValueError("embedding_size must not exceed hidden_size")
        if self.num_layers < 0:
            raise ValueError("num_layers must be >= 0")


# ---------------------------------------------------------------------------
# parameter inventory
# ---------------------------------------------------------------------------

def block_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    h, i = config.hidden_size, config.intermediate_size
    shapes: dict[str, tuple[int, ...]] = {}
    for part in ("query", "key", "value"):
        shapes[f"block_{part}_weight"] = (h, h)
        shapes[f"block_{part}_bias"] = (h,)
    shapes["block_attn_output_weight"] = (h, h)
    shapes["block_attn_output_bias"] = (h,)
    shapes["block_attn_norm_gain"] = (h,)
    shapes["block_attn_norm_bias"] = (h,)
    shapes["block_ffn_in_weight"] = (h, i)
    shapes["block_ffn_in_bias"] = (i,)
    shapes["block_ffn_out_weight"] = (i, h)
    shapes["block_ffn_out_bias"] = (h,)
    shapes["block_ffn_norm_gain"] = (h,)
    shapes["block_ffn_norm_bias"] = (h,)
    return shapes


def parameter_shapes(
    config: ModelConfig,
    heads=("mlm", "sop"),
    num_labels: int | None = None,
) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every tensor the config defines.

    The masked-LM decoder weight is tied to token_embedding and therefore
    not listed separately; the pooler belongs to the "sop" head.
    """
    v, e, h = config.vocab_size, config.embedding_size, config.hidden_size
    shapes: dict[str, tuple[int, ...]] = {
        "token_embedding": (v, e),
        "position_embedding": (config.max_positions, e),
        "type_embedding": (config.type_vocab_size, e),
        "embedding_norm_gain": (e,),
        "embedding_norm_bias": (e,),
        "embedding_projection_weight": (e, h),
        "embedding_projection_bias": (h,),
    }
    shapes.update(block_shapes(config))
    if "sop" in heads:
        shapes["pooler_weight"] = (h, h)
        shapes["pooler_bias"] = (h,)
        shapes["sop_weight"] = (h, 2)
        shapes["sop_bias"] = (2,)
    if "mlm" in heads:
        shapes["mlm_dense_weight"] = (h, e)
        shapes["mlm_dense_bias"] = (e,)
        shapes["mlm_norm_gain"] = (e,)
        shapes["mlm_norm_bias"] = (e,)
        shapes["mlm_output_bias"] = (v,)
    if "ner" in heads:
        if not num_labels:
            raise ValueError("ner head requires num_labels")
        shapes["ner_weight"] = (h, num_labels)
        shapes["ner_bias"] = (num_labels,)
    return shapes


def count_parameters(
    config: ModelConfig,
    heads=("mlm", "sop"),
    num_labels: int | None = None,
) -> int:
    """Total trainable elements; the one shared block counts once at any depth."""
    shapes = parameter_shapes(config, heads, num_labels)
    return sum(int(np.prod(shape)) for shape in shapes.values())


def init_parameters(
    config: ModelConfig,
    rng: RngStream,
    heads=("mlm", "sop"),
    num_labels: int | None = None,
) -> dict[str, np.ndarray]:
    """Truncated-normal weights (std 0.02, clipped at 2 sigma), zero biases,
    unit norm gains."""
    params = {}
    for name, shape in parameter_shapes(config, heads, num_labels).items():
        if name.endswith("_gain"):
            params[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith("_bias"):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            params[name] = truncated_normal(rng, shape, INIT_STD)
    return params


def truncated_normal(rng: RngStream, shape, std, dtype=np.float32):
    """Inverse-CDF sampling of a normal truncated at +-INIT_CLIP_SIGMA sigma;
    consumes exactly one stream word per element. An element depends only on
    its stream position, so drawing in chunks gives a whole draw's bits."""
    n = int(np.prod(shape))
    out = np.empty(n, dtype)
    for start in range(0, n, _NDTRI_CHUNK):
        u = _NDTR_LO + (_NDTR_HI - _NDTR_LO) * rng.uniform_block(min(_NDTRI_CHUNK, n - start))
        out[start : start + len(u)] = _ndtri(u) * std
    return out.reshape(shape)


# scipy.special.ndtr(-/+ INIT_CLIP_SIGMA): the normal CDF at the clip points
_NDTR_LO = 0.022750131948179195
_NDTR_HI = 0.9772498680518208
_NDTRI_CHUNK = 65536  # elements per draw: 512 KiB of float64

# Cephes ndtri's rational approximations, highest power first: P0/Q0 for the
# centre, P1/Q1 for the tails while sqrt(-2 log y) < 8.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n] by Horner's rule, rounded as cephes rounds it."""
    y = np.full_like(x, coef[0])
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _ndtri(u):
    """The standard normal quantile of u in [_NDTR_LO, _NDTR_HI], by cephes
    ndtri's central and first tail branches: within a few float64 ulps of
    scipy.special.ndtri, and the same float32 weights."""
    upper = u > 1.0 - _EXP_MINUS_2
    y = np.where(upper, 1.0 - u, u)
    central = y > _EXP_MINUS_2
    x = np.empty_like(y)
    c = y[central] - 0.5
    c2 = c * c
    x[central] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0))) * _SQRT_2PI
    tail = ~central
    r = np.sqrt(-2.0 * np.log(y[tail]))
    z = 1.0 / r
    t = (r - np.log(r) / r) - z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    x[tail] = np.where(upper[tail], t, -t)
    return x


# ---------------------------------------------------------------------------
# forward/backward
# ---------------------------------------------------------------------------

# Each linear and layer norm is named once, in its forward: the cache keeps
# the name, and the backward adds both parameter gradients under it and
# returns the input gradient.

def _linear(params, name, x):
    y, cache = ops.linear_forward(x, params[f"{name}_weight"], params[f"{name}_bias"])
    return y, (name, cache)


def _linear_back(grads, cache, d_out):
    name, lin_cache = cache
    d_x, d_w, d_b = ops.linear_backward(lin_cache, d_out)
    grads[f"{name}_weight"] += d_w
    grads[f"{name}_bias"] += d_b
    return d_x


def _linear_cache(params, name, x):
    """The cache _linear(params, name, x) returns, for an input x the caller
    kept or rebuilt."""
    return name, (x, params[f"{name}_weight"])


def _norm(params, name, x):
    y, cache = ops.layer_norm_forward(x, params[f"{name}_gain"], params[f"{name}_bias"])
    return y, (name, cache)


def _norm_back(grads, cache, d_out):
    name, norm_cache = cache
    d_x, d_gain, d_bias = ops.layer_norm_backward(norm_cache, d_out)
    grads[f"{name}_gain"] += d_gain
    grads[f"{name}_bias"] += d_bias
    return d_x


def _norm_output(params, cache):
    """A _norm's output, rebuilt from its cache by layer_norm_forward's own
    ops, so it has the forward's bits."""
    name, (x_hat, _, gain) = cache
    y = x_hat * gain
    y += params[f"{name}_bias"]
    return y


def zero_grads(params) -> dict[str, np.ndarray]:
    """A zero gradient for every parameter. Backward passes add into it in
    place, so a step's parts share one set of buffers from the first part on."""
    return {name: np.zeros_like(p) for name, p in params.items()}


def _embed_forward(params, config, token_ids, type_ids):
    seq_len = token_ids.shape[1]
    tok, tok_cache = ops.embedding_forward(params["token_embedding"], token_ids)
    typ, typ_cache = ops.embedding_forward(params["type_embedding"], type_ids)
    summed = tok + typ + params["position_embedding"][:seq_len]
    normed, norm_cache = _norm(params, "embedding_norm", summed)
    projected, proj_cache = _linear(params, "embedding_projection", normed)
    return projected, (tok_cache, typ_cache, norm_cache, proj_cache, seq_len)


def _embed_backward(params, cache, d_out, grads):
    tok_cache, typ_cache, norm_cache, proj_cache, seq_len = cache
    d_normed = _linear_back(grads, proj_cache, d_out)
    d_summed = _norm_back(grads, norm_cache, d_normed)
    grads["token_embedding"] += ops.embedding_backward(tok_cache, d_summed)
    grads["type_embedding"] += ops.embedding_backward(typ_cache, d_summed)
    grads["position_embedding"][:seq_len] += d_summed.sum(axis=0)


def _split_heads(x, num_heads):
    b, t, h = x.shape
    return x.reshape(b, t, num_heads, h // num_heads).transpose(0, 2, 1, 3)


def _join_heads(x):
    b, a, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, a * dh)


def _attention_scale(config):
    # python float, so float32 activations stay float32
    return (config.hidden_size // config.num_heads) ** -0.5


def _block_forward(params, config, x, neg_mask):
    """The shared block on x. Its cache keeps neither x nor what the backward
    rebuilds: the attention norm's output (from that norm's cache) and the
    GELU's output and slope (from its input, `inner`), so the forward
    builds no slope."""
    q, k, v = (
        _split_heads(_linear(params, f"block_{part}", x)[0], config.num_heads)
        for part in ("query", "key", "value")
    )
    scores = q @ k.swapaxes(-1, -2)
    scores *= _attention_scale(config)
    scores += neg_mask
    probs, _ = ops.softmax_forward(scores)
    del scores
    ctx = _join_heads(probs @ v)
    attn_out, out_cache = _linear(params, "block_attn_output", ctx)
    attn_out += x
    x1, attn_norm_cache = _norm(params, "block_attn_norm", attn_out)
    del attn_out

    inner = _linear(params, "block_ffn_in", x1)[0]
    act = ops.gelu(inner)
    ffn_out = _linear(params, "block_ffn_out", act)[0]
    del act
    ffn_out += x1
    x2, ffn_norm_cache = _norm(params, "block_ffn_norm", ffn_out)
    cache = (q, k, v, probs, out_cache, attn_norm_cache, inner, ffn_norm_cache)
    return x2, cache


def _block_backward(params, config, cache, x, d_out, grads):
    """Input gradient of the block whose forward on x left `cache`; adds the
    parameter gradients into grads. The rebuilt activations are the
    forward's own ops on the same inputs, so they are its bits."""
    q, k, v, probs, out_cache, attn_norm_cache, inner, ffn_norm_cache = cache
    del cache  # a caller that let go of it frees each cached array after its last use
    scale = _attention_scale(config)

    d_x1 = _norm_back(grads, ffn_norm_cache, d_out)
    del ffn_norm_cache
    act, slope = ops.gelu_forward(inner)
    del inner
    d_act = _linear_back(grads, _linear_cache(params, "block_ffn_out", act), d_x1)
    del act
    d_inner = ops.gelu_backward(slope, d_act)
    del slope, d_act  # (b, T, I) each: free them before the next GEMM
    x1 = _norm_output(params, attn_norm_cache)
    d_x1 += _linear_back(grads, _linear_cache(params, "block_ffn_in", x1), d_inner)
    del x1, d_inner

    d_x = _norm_back(grads, attn_norm_cache, d_x1)
    del d_x1
    d_ctx = _linear_back(grads, out_cache, d_x)

    d_ctx = _split_heads(d_ctx, config.num_heads)
    d_probs = d_ctx @ v.swapaxes(-1, -2)
    d_v = probs.swapaxes(-1, -2) @ d_ctx
    del d_ctx
    d_scores = ops.softmax_backward(probs, d_probs)
    del d_probs
    d_q = d_scores @ k
    d_q *= scale
    d_k = d_scores.swapaxes(-1, -2) @ q
    d_k *= scale
    del d_scores

    for part, d_part in (("query", d_q), ("key", d_k), ("value", d_v)):
        d_x += _linear_back(grads, _linear_cache(params, f"block_{part}", x), _join_heads(d_part))
    return d_x


def _check_inputs(config, token_ids, attention_mask):
    if token_ids.shape[1] > config.max_positions:
        raise ValueError(
            f"sequence length {token_ids.shape[1]} exceeds max_positions {config.max_positions}"
        )
    if token_ids.max(initial=0) >= config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    if attention_mask.shape != token_ids.shape:
        raise ValueError("attention_mask shape mismatch")


def length_parts(attention_mask, max_rows=None) -> list[tuple[np.ndarray, int]]:
    """(row indices, trimmed length) of each part of a batch. Rows are
    stable-sorted by real length (one past the last real position, at least
    1); a part closes before a row that would take it past its share of
    PART_POSITIONS (a half: rows x its last, longest row's length) or past
    max_rows rows. A row longer than the share makes a part alone. Trimming
    cuts only padding every row of the part masks out: results move by
    round-off."""
    mask = np.asarray(attention_mask) != 0
    if len(mask) == 0:
        return []
    lengths = np.where(mask.any(axis=1), mask.shape[1] - mask[:, ::-1].argmax(axis=1), 1)
    order = np.argsort(lengths, kind="stable")
    share = PART_POSITIONS // LANES
    parts, start = [], 0
    for end in range(1, len(order)):
        rows = end + 1 - start
        too_many = max_rows is not None and rows > max_rows
        if too_many or rows * lengths[order[end]] > share:
            parts.append((order[start:end], int(lengths[order[end - 1]])))
            start = end
    parts.append((order[start:], int(lengths[order[-1]])))
    return parts


@functools.cache
def _find_openblas():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None
    where numpy carries no scipy-openblas library."""
    import ctypes
    from pathlib import Path

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded: dlopen returns it
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@functools.cache
def _malloc_trim():
    """The C library's malloc_trim, or None where it has none (not glibc)."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


class Lane(int):
    """The lane number map_parts hands part_fn. A training part calls hold()
    between its forward and its backward: on the lanes' first parts, run at
    once, it waits until the other lane has finished its forward (or its
    part), so both first parts' caches are in flight together, and later it
    returns at once."""

    def __new__(cls, number, hold=None):
        lane = super().__new__(cls, number)
        lane.hold = hold or (lambda: None)
        return lane


def map_parts(part_fn, records, attention_mask, max_rows=None) -> list:
    """(rows, part_fn(records[rows], t, lane)) for each part length_parts cuts
    attention_mask into, in part order; t is the part's trimmed length. Part
    i runs on lane i % 2: lane 0 on the calling thread takes its parts in
    order and lane 1 on a worker thread takes part 1 and then its others
    longest first. They run at once where numpy's OpenBLAS is configured
    for 2 or more threads (--threads, the environment or the core count),
    with BLAS pinned to one thread until they are done, and otherwise one
    after the other. A part_fn that writes only its lane's state gives the
    same bits either way. When parts raise, the lowest-numbered part's error
    is raised once the worker is joined; a lane skips the parts numbered
    above a failure."""
    parts = length_parts(attention_mask, max_rows)
    results = [None] * len(parts)
    failures = []  # (part index, exception), appended by both lanes
    blas = _find_openblas() if len(parts) > 1 else None
    threads = blas[0]() if blas else 1  # the caller's BLAS thread count
    at_once = threads > 1
    if at_once:
        import threading

        finished = [threading.Event(), threading.Event()]  # a lane's forward or part is done

        def hold(number):
            finished[number].set()
            finished[1 - number].wait()

    def run_lane(number):
        lane = Lane(number, (lambda: hold(number)) if at_once else None)
        mine = range(number, len(parts), 2)
        for i in mine if number == 0 else [*mine[:1], *reversed(mine[1:])]:
            if failures and i > min(failures)[0]:
                continue
            rows, t = parts[i]
            try:
                results[i] = (rows, part_fn(records[rows], t, lane))
            except Exception as exc:  # raised again below, on the calling thread
                failures.append((i, exc))
            finally:
                if at_once:
                    finished[number].set()

    if at_once:
        blas[1](1)
        try:
            worker = threading.Thread(target=run_lane, args=(1,), name="map_parts lane 1")
            worker.start()
            try:
                run_lane(0)
                worker.join()
            except BaseException:  # an interrupt: lane 1 stops after its part in flight
                failures.append((-1, None))
                finished[0].set()
                worker.join()
                raise
        finally:
            blas[1](threads)
            # glibc keeps what lane 1 freed in its thread's arena, where the
            # calling thread cannot reuse it: give it back to the system
            trim = _malloc_trim()
            if trim is not None:
                trim(0)
    else:
        run_lane(0)
        run_lane(1)
    if failures:
        raise min(failures)[1]
    return results


def add_lanes(lane_grads):
    """Lane 0's gradient dict, with lane 1's added into it."""
    total, other = lane_grads
    for name, grad in other.items():
        total[name] += grad
    return total


def encode_forward(params, config, token_ids, type_ids, attention_mask, caches=None):
    """Hidden states (batch, T, H) for a batch padded to T. Callers pass
    batches sorted by length and trimmed (length_parts), so T is the part's
    longest row. A list passed as `caches` gets the embedding's cache, the
    first layer's input and then each layer's cache (L + 2 items) for
    _encode_backward; without one, no layer's cache outlives the layer."""
    token_ids = np.asarray(token_ids)
    type_ids = np.asarray(type_ids)
    attention_mask = np.asarray(attention_mask)
    _check_inputs(config, token_ids, attention_mask)

    dtype = params["token_embedding"].dtype
    neg_mask = ((1 - attention_mask) * NEG_INF).astype(dtype)[:, None, None, :]

    x, cache = _embed_forward(params, config, token_ids, type_ids)
    if caches is not None:
        caches += [cache, x]
    del cache
    for _ in range(config.num_layers):
        # inference holds no cache while the next layer runs
        x, cache = _block_forward(params, config, x, neg_mask)
        if caches is not None:
            caches.append(cache)
        del cache
    return x


def _encode_backward(params, config, caches, d_hidden, grads):
    """Backward through encode_forward's caches, which it empties as it goes:
    each layer's input after the first is rebuilt from the layer below's
    output norm, and each layer's cache is freed once its backward is done."""
    d_x = d_hidden
    while len(caches) > 2:
        x = caches[-2] if len(caches) == 3 else _norm_output(params, caches[-2][-1])
        d_x = _block_backward(params, config, caches.pop(), x, d_x, grads)
        del x
    _embed_backward(params, caches[0], d_x, grads)
    caches.clear()


# ---------------------------------------------------------------------------
# heads and losses
# ---------------------------------------------------------------------------

@dataclass
class PretrainLosses:
    mlm_loss: float
    sop_loss: float
    sop_hits: int  # rows whose SOP argmax matches the label
    total: float = field(init=False)

    def __post_init__(self):
        self.total = self.mlm_loss + self.sop_loss


def pack_pretrain_batch(batch, length=None):
    """Batch arrays from pretraining example records (corpus.example_dtype),
    cut to their first `length` positions (T): the part's trimmed length
    from length_parts, or None for the records' full width.

    Masked positions become flat row indices into (batch * T, H), in example
    order and, within an example, in slot order; unused slots are dropped.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    inputs = batch["input"]
    t = inputs["token_ids"].shape[1] if length is None else length
    token_ids = np.ascontiguousarray(inputs["token_ids"][:, :t])
    offsets = np.arange(len(batch), dtype=np.int64)[:, None] * t
    labels = batch["mlm_labels"]
    used = labels != ops.IGNORE_INDEX
    return {
        "token_ids": token_ids,
        "type_ids": np.ascontiguousarray(inputs["type_ids"][:, :t]),
        "attention_mask": np.ascontiguousarray(inputs["attention_mask"][:, :t]),
        "mlm_rows": (offsets + batch["mlm_positions"])[used],
        "mlm_labels": labels[used].astype(np.int64),
        "sop_labels": batch["sop_label"].astype(np.int64),
    }


def _mlm_head_forward(params, hidden_flat, rows, backward):
    dense, dense_cache = _linear(params, "mlm_dense", hidden_flat[rows])
    act, act_cache = ops.gelu_forward(dense) if backward else (ops.gelu(dense), None)
    normed, norm_cache = _norm(params, "mlm_norm", act)
    logits = normed @ params["token_embedding"].T + params["mlm_output_bias"]
    return logits, (dense_cache, act_cache, norm_cache, normed, rows)


def _mlm_head_backward(params, cache, d_logits, grads, d_hidden_flat):
    dense_cache, act_cache, norm_cache, normed, rows = cache
    grads["mlm_output_bias"] += d_logits.sum(axis=0)
    grads["token_embedding"] += d_logits.T @ normed  # tied decoder weight
    d_normed = d_logits @ params["token_embedding"]
    d_act = _norm_back(grads, norm_cache, d_normed)
    d_dense = ops.gelu_backward(act_cache, d_act)
    np.add.at(d_hidden_flat, rows, _linear_back(grads, dense_cache, d_dense))


def _pooler_forward(params, hidden):
    cls = hidden[:, 0]
    lin, lin_cache = _linear(params, "pooler", cls)
    pooled, tanh_cache = ops.tanh_forward(lin)
    return pooled, (lin_cache, tanh_cache)


def pretrain_loss(params, config, batch, counts=None) -> PretrainLosses:
    """MLM + SOP losses and SOP hits for a packed batch (see
    pack_pretrain_batch). With counts=(masked slots, rows) of a larger set
    the batch is part of, each loss is this part's share of that set's mean."""
    return _pretrain_pass(params, config, batch, None, counts=counts)


def pretrain_loss_and_grads(params, config, batch, counts=None, grads=None, hold=None):
    """pretrain_loss and its gradients, added into `grads` (zero_grads(params)
    when None); returns (losses, grads). `hold`, a map_parts Lane's, is
    called between the forward and the backward."""
    grads = zero_grads(params) if grads is None else grads
    return _pretrain_pass(params, config, batch, grads, counts, hold), grads


def _pretrain_pass(params, config, batch, grads, counts=None, hold=None):
    if batch["sop_labels"].size == 0:
        raise ValueError("empty batch")
    mlm_count, sop_count = counts or (batch["mlm_rows"].size, batch["sop_labels"].size)
    if mlm_count == 0:
        raise ValueError("batch has no masked positions")
    caches = [] if grads is not None else None
    hidden = encode_forward(
        params, config, batch["token_ids"], batch["type_ids"], batch["attention_mask"], caches
    )
    b, t, h = hidden.shape
    hidden_flat = hidden.reshape(b * t, h)

    mlm_logits, mlm_cache = _mlm_head_forward(
        params, hidden_flat, batch["mlm_rows"], grads is not None
    )
    mlm_loss, d_mlm_logits = ops.softmax_cross_entropy_with_grad(
        mlm_logits, batch["mlm_labels"], count=mlm_count
    )
    pooled, pooler_cache = _pooler_forward(params, hidden)
    sop_logits, sop_cache = _linear(params, "sop", pooled)
    sop_loss, d_sop_logits = ops.softmax_cross_entropy_with_grad(
        sop_logits, batch["sop_labels"], count=sop_count
    )
    sop_hits = int((sop_logits.argmax(axis=1) == batch["sop_labels"]).sum())
    losses = PretrainLosses(mlm_loss=mlm_loss, sop_loss=sop_loss, sop_hits=sop_hits)
    if grads is None:
        return losses
    if hold is not None:
        hold()

    d_hidden_flat = np.zeros_like(hidden_flat)
    _mlm_head_backward(params, mlm_cache, d_mlm_logits, grads, d_hidden_flat)

    d_pooled = _linear_back(grads, sop_cache, d_sop_logits)
    lin_cache, tanh_cache = pooler_cache
    d_cls = _linear_back(grads, lin_cache, ops.tanh_backward(tanh_cache, d_pooled))

    d_hidden = d_hidden_flat.reshape(b, t, h)
    d_hidden[:, 0] += d_cls
    _encode_backward(params, config, caches, d_hidden, grads)
    return losses


def token_logits(params, config, token_ids, type_ids, attention_mask):
    """(batch, T, num_labels) tag scores; requires the ner head."""
    if "ner_weight" not in params:
        raise ValueError("model has no ner head")
    hidden = encode_forward(params, config, token_ids, type_ids, attention_mask)
    return ops.linear(hidden, params["ner_weight"], params["ner_bias"])


def ner_loss_and_grads(params, config, token_ids, type_ids, attention_mask,
                       label_ids, count=None, grads=None, hold=None):
    """Cross-entropy over word-initial positions (others carry IGNORE_INDEX):
    the mean over them, or with `count` their summed loss over the count of
    a larger batch this one is part of. Gradients are added into `grads`
    (zero_grads(params) when None); returns (loss, grads). `hold`, a
    map_parts Lane's, is called between the forward and the backward."""
    if "ner_weight" not in params:
        raise ValueError("model has no ner head")
    caches = []
    hidden = encode_forward(params, config, token_ids, type_ids, attention_mask, caches)
    b, t, h = hidden.shape
    flat = hidden.reshape(b * t, h)
    logits, lin_cache = _linear(params, "ner", flat)
    loss, d_logits = ops.softmax_cross_entropy_with_grad(
        logits, np.asarray(label_ids).reshape(-1), count=count
    )
    grads = zero_grads(params) if grads is None else grads
    if hold is not None:
        hold()
    d_flat = _linear_back(grads, lin_cache, d_logits)
    _encode_backward(params, config, caches, d_flat.reshape(b, t, h), grads)
    return loss, grads
