"""ALBERT-style encoder on plain numpy arrays.

The layout: token/position/type embeddings at size E, layer-normed and
projected to hidden size H, then one transformer block (post-norm residual
order, GELU feed-forward) applied L times with a single shared parameter
set. Heads: tied-weight masked-LM decoder back to the vocabulary, a tanh
pooler feeding the sentence-order classifier, and an optional per-token
linear tagger.

Parameters live in a flat name -> ndarray dict. The forward keeps its
caches only in a list a training loss passes in, and every backward adds
into one gradient dict, summing the shared block's L applications.

One rule cuts every batch (length_parts): length-sorted parts of at most
PART_POSITIONS positions (and, in inference, an eval batch of rows), each
trimmed to its longest row, so padding is never computed and activations do
not grow with the batch. A training step's parts, each divided by the whole
step's count, add into one loss and one gradient dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import ops
from .rng import RngStream

NEG_INF = -1e9
INIT_STD = 0.02
INIT_CLIP_SIGMA = 2.0
PART_POSITIONS = 256  # rows x trimmed length per part: bounds its activations


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
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.intermediate_size == 0:
            self.intermediate_size = 4 * self.hidden_size
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        if self.embedding_size > self.hidden_size:
            raise ValueError("embedding_size must not exceed hidden_size")
        if self.num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


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
    dtype=np.float32,
) -> dict[str, np.ndarray]:
    """Truncated-normal weights (std 0.02, clipped at 2 sigma), zero biases,
    unit norm gains."""
    params = {}
    for name, shape in parameter_shapes(config, heads, num_labels).items():
        if name.endswith("_gain"):
            params[name] = np.ones(shape, dtype=dtype)
        elif name.endswith("_bias"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = truncated_normal(rng, shape, INIT_STD, dtype=dtype)
    return params


def truncated_normal(rng: RngStream, shape, std, clip=INIT_CLIP_SIGMA, dtype=np.float32):
    """Inverse-CDF sampling of a normal truncated at +-clip sigma; consumes
    exactly one stream word per element."""
    n = int(np.prod(shape))
    lo = special.ndtr(-clip)
    hi = special.ndtr(clip)
    u = lo + (hi - lo) * rng.uniform_block(n)
    return (special.ndtri(u) * std).astype(dtype).reshape(shape)


# ---------------------------------------------------------------------------
# forward/backward
# ---------------------------------------------------------------------------

def _dropout_forward(x, rate, rng):
    if rate <= 0.0:
        return x, None
    keep = rng.uniform_block(x.size).reshape(x.shape) >= rate
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.dtype)
    mask = keep.astype(x.dtype) * scale
    return x * mask, mask


def _dropout_backward(mask, d_out):
    return d_out if mask is None else d_out * mask


def _embed_forward(params, config, token_ids, type_ids, rate, rng):
    seq_len = token_ids.shape[1]
    tok, tok_cache = ops.embedding_forward(params["token_embedding"], token_ids)
    typ, typ_cache = ops.embedding_forward(params["type_embedding"], type_ids)
    summed = tok + typ + params["position_embedding"][:seq_len]
    normed, norm_cache = ops.layer_norm_forward(
        summed, params["embedding_norm_gain"], params["embedding_norm_bias"]
    )
    projected, proj_cache = ops.linear_forward(
        normed,
        params["embedding_projection_weight"],
        params["embedding_projection_bias"],
    )
    dropped, drop_mask = _dropout_forward(projected, rate, rng)
    return dropped, (tok_cache, typ_cache, norm_cache, proj_cache, drop_mask, seq_len)


def _add(grads, name, value):
    grads[name] = grads.get(name, 0.0) + value


def _embed_backward(params, config, cache, d_out, grads):
    tok_cache, typ_cache, norm_cache, proj_cache, drop_mask, seq_len = cache
    d_out = _dropout_backward(drop_mask, d_out)
    d_normed, d_w, d_b = ops.linear_backward(proj_cache, d_out)
    _add(grads, "embedding_projection_weight", d_w)
    _add(grads, "embedding_projection_bias", d_b)
    d_summed, d_gain, d_bias = ops.layer_norm_backward(norm_cache, d_normed)
    _add(grads, "embedding_norm_gain", d_gain)
    _add(grads, "embedding_norm_bias", d_bias)
    _add(grads, "token_embedding", ops.embedding_backward(tok_cache, d_summed))
    _add(grads, "type_embedding", ops.embedding_backward(typ_cache, d_summed))
    d_pos = np.zeros_like(params["position_embedding"])
    d_pos[:seq_len] = d_summed.sum(axis=0)
    _add(grads, "position_embedding", d_pos)


def _split_heads(x, num_heads):
    b, t, h = x.shape
    return x.reshape(b, t, num_heads, h // num_heads).transpose(0, 2, 1, 3)


def _join_heads(x):
    b, a, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, a * dh)


def _block_forward(params, config, x, neg_mask, rate, rng):
    a = config.num_heads
    # python-float scale so float32 activations stay float32
    scale = (config.hidden_size // a) ** -0.5

    q_full, q_cache = ops.linear_forward(x, params["block_query_weight"], params["block_query_bias"])
    k_full, k_cache = ops.linear_forward(x, params["block_key_weight"], params["block_key_bias"])
    v_full, v_cache = ops.linear_forward(x, params["block_value_weight"], params["block_value_bias"])
    q, k, v = (_split_heads(z, a) for z in (q_full, k_full, v_full))

    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    scores += neg_mask
    probs, probs_cache = ops.softmax_forward(scores, axis=-1)
    del scores
    ctx = _join_heads(probs @ v)
    attn_out, out_cache = ops.linear_forward(
        ctx, params["block_attn_output_weight"], params["block_attn_output_bias"]
    )
    attn_out, attn_drop = _dropout_forward(attn_out, rate, rng)
    x1, attn_norm_cache = ops.layer_norm_forward(
        x + attn_out, params["block_attn_norm_gain"], params["block_attn_norm_bias"]
    )

    inner, in_cache = ops.linear_forward(x1, params["block_ffn_in_weight"], params["block_ffn_in_bias"])
    act, act_cache = ops.gelu_forward(inner)
    ffn_out, out2_cache = ops.linear_forward(act, params["block_ffn_out_weight"], params["block_ffn_out_bias"])
    ffn_out, ffn_drop = _dropout_forward(ffn_out, rate, rng)
    x2, ffn_norm_cache = ops.layer_norm_forward(
        x1 + ffn_out, params["block_ffn_norm_gain"], params["block_ffn_norm_bias"]
    )
    cache = (
        q_cache, k_cache, v_cache, (q, k, v), probs_cache, out_cache, attn_drop,
        attn_norm_cache, in_cache, act_cache, out2_cache, ffn_drop, ffn_norm_cache,
        scale, a,
    )
    return x2, cache


def _block_backward(params, config, cache, d_out, grads):
    (q_cache, k_cache, v_cache, qkv, probs_cache, out_cache, attn_drop,
     attn_norm_cache, in_cache, act_cache, out2_cache, ffn_drop, ffn_norm_cache,
     scale, a) = cache
    q, k, v = qkv
    probs = probs_cache[0]

    d_x1_plus, d_gain, d_bias = ops.layer_norm_backward(ffn_norm_cache, d_out)
    _add(grads, "block_ffn_norm_gain", d_gain)
    _add(grads, "block_ffn_norm_bias", d_bias)
    d_ffn = _dropout_backward(ffn_drop, d_x1_plus)
    d_act, d_w, d_b = ops.linear_backward(out2_cache, d_ffn)
    _add(grads, "block_ffn_out_weight", d_w)
    _add(grads, "block_ffn_out_bias", d_b)
    d_inner = ops.gelu_backward(act_cache, d_act)
    d_x1_ffn, d_w, d_b = ops.linear_backward(in_cache, d_inner)
    _add(grads, "block_ffn_in_weight", d_w)
    _add(grads, "block_ffn_in_bias", d_b)
    del d_act, d_inner  # (b, T, I) each: free them before attention's backward
    d_x1 = d_x1_plus + d_x1_ffn

    d_x_plus, d_gain, d_bias = ops.layer_norm_backward(attn_norm_cache, d_x1)
    _add(grads, "block_attn_norm_gain", d_gain)
    _add(grads, "block_attn_norm_bias", d_bias)
    d_attn = _dropout_backward(attn_drop, d_x_plus)
    d_ctx, d_w, d_b = ops.linear_backward(out_cache, d_attn)
    _add(grads, "block_attn_output_weight", d_w)
    _add(grads, "block_attn_output_bias", d_b)

    d_ctx = _split_heads(d_ctx, a)
    d_probs = d_ctx @ v.swapaxes(-1, -2)
    d_v = probs.swapaxes(-1, -2) @ d_ctx
    d_scores = ops.softmax_backward(probs_cache, d_probs)
    del d_probs
    d_q = d_scores @ k
    d_q *= scale
    d_k = d_scores.swapaxes(-1, -2) @ q
    d_k *= scale

    d_x = d_x_plus
    for full, lin_cache, w_name in (
        (d_q, q_cache, "query"),
        (d_k, k_cache, "key"),
        (d_v, v_cache, "value"),
    ):
        d_in, d_w, d_b = ops.linear_backward(lin_cache, _join_heads(full))
        _add(grads, f"block_{w_name}_weight", d_w)
        _add(grads, f"block_{w_name}_bias", d_b)
        d_x = d_x + d_in
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
    1); a part closes before a row that would take it past PART_POSITIONS
    positions (rows x its last, longest row's length) or past max_rows rows.
    A row longer than the budget makes a part alone. Trimming cuts only
    padding every row of the part masks out: results move by round-off."""
    mask = np.asarray(attention_mask) != 0
    if len(mask) == 0:
        return []
    lengths = np.where(mask.any(axis=1), mask.shape[1] - mask[:, ::-1].argmax(axis=1), 1)
    order = np.argsort(lengths, kind="stable")
    parts, start = [], 0
    for end in range(1, len(order)):
        rows = end + 1 - start
        too_many = max_rows is not None and rows > max_rows
        if too_many or rows * lengths[order[end]] > PART_POSITIONS:
            parts.append((order[start:end], int(lengths[order[end - 1]])))
            start = end
    parts.append((order[start:], int(lengths[order[-1]])))
    return parts


def encode_forward(params, config, token_ids, type_ids, attention_mask,
                   dropout_rng=None, caches=None):
    """Hidden states (batch, T, H) for a batch padded to T. Callers pass
    batches sorted by length and trimmed (length_parts), so T is the part's
    longest row. A list passed as `caches` gets the embedding's and then
    each layer's cache (L + 1) for _encode_backward; without one, no layer's
    cache outlives the layer. Dropout at config.dropout_rate is on exactly
    when a dropout_rng is passed."""
    token_ids = np.asarray(token_ids)
    type_ids = np.asarray(type_ids)
    attention_mask = np.asarray(attention_mask)
    _check_inputs(config, token_ids, attention_mask)

    rate = config.dropout_rate if dropout_rng is not None else 0.0
    dtype = params["token_embedding"].dtype
    neg_mask = ((1 - attention_mask) * NEG_INF).astype(dtype)[:, None, None, :]

    x, cache = _embed_forward(params, config, token_ids, type_ids, rate, dropout_rng)
    for _ in range(config.num_layers):
        if caches is not None:
            caches.append(cache)
        del cache  # inference holds no cache while the next layer runs
        x, cache = _block_forward(params, config, x, neg_mask, rate, dropout_rng)
    if caches is not None:
        caches.append(cache)
    return x


def _encode_backward(params, config, caches, d_hidden, grads):
    d_x = d_hidden
    for layer_cache in reversed(caches[1:]):
        d_x = _block_backward(params, config, layer_cache, d_x, grads)
    _embed_backward(params, config, caches[0], d_x, grads)


# ---------------------------------------------------------------------------
# heads and losses
# ---------------------------------------------------------------------------

@dataclass
class PretrainLosses:
    mlm_loss: float
    sop_loss: float
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


def _mlm_head_forward(params, hidden_flat, rows):
    gathered = hidden_flat[rows]
    dense, dense_cache = ops.linear_forward(
        gathered, params["mlm_dense_weight"], params["mlm_dense_bias"]
    )
    act, act_cache = ops.gelu_forward(dense)
    normed, norm_cache = ops.layer_norm_forward(
        act, params["mlm_norm_gain"], params["mlm_norm_bias"]
    )
    logits = normed @ params["token_embedding"].T + params["mlm_output_bias"]
    return logits, (dense_cache, act_cache, norm_cache, normed, rows)


def _mlm_head_backward(params, cache, d_logits, grads, d_hidden_flat):
    dense_cache, act_cache, norm_cache, normed, rows = cache
    _add(grads, "mlm_output_bias", d_logits.sum(axis=0))
    _add(grads, "token_embedding", d_logits.T @ normed)  # tied decoder weight
    d_normed = d_logits @ params["token_embedding"]
    d_act, d_gain, d_bias = ops.layer_norm_backward(norm_cache, d_normed)
    _add(grads, "mlm_norm_gain", d_gain)
    _add(grads, "mlm_norm_bias", d_bias)
    d_dense = ops.gelu_backward(act_cache, d_act)
    d_gathered, d_w, d_b = ops.linear_backward(dense_cache, d_dense)
    _add(grads, "mlm_dense_weight", d_w)
    _add(grads, "mlm_dense_bias", d_b)
    np.add.at(d_hidden_flat, rows, d_gathered)


def _pooler_forward(params, hidden):
    cls = hidden[:, 0]
    lin, lin_cache = ops.linear_forward(cls, params["pooler_weight"], params["pooler_bias"])
    pooled, tanh_cache = ops.tanh_forward(lin)
    return pooled, (lin_cache, tanh_cache)


def pretrain_loss(params, config, batch, counts=None) -> PretrainLosses:
    """MLM + SOP losses for a packed batch (see pack_pretrain_batch). With
    counts=(masked slots, rows) of a larger set the batch is part of, each
    loss is this part's share of that set's mean."""
    return _pretrain_pass(params, config, batch, None, counts=counts)


def pretrain_loss_and_grads(params, config, batch, dropout_rng=None, counts=None, grads=None):
    """pretrain_loss and its gradients, added into `grads` (a new dict when
    None); returns (losses, grads)."""
    grads = {} if grads is None else grads
    return _pretrain_pass(params, config, batch, grads, dropout_rng, counts), grads


def _pretrain_pass(params, config, batch, grads, dropout_rng=None, counts=None):
    if batch["sop_labels"].size == 0:
        raise ValueError("empty batch")
    mlm_count, sop_count = counts or (batch["mlm_rows"].size, batch["sop_labels"].size)
    if mlm_count == 0:
        raise ValueError("batch has no masked positions")
    caches = [] if grads is not None else None
    hidden = encode_forward(
        params, config, batch["token_ids"], batch["type_ids"],
        batch["attention_mask"], dropout_rng, caches,
    )
    b, t, h = hidden.shape
    hidden_flat = hidden.reshape(b * t, h)

    mlm_logits, mlm_cache = _mlm_head_forward(params, hidden_flat, batch["mlm_rows"])
    mlm_loss, d_mlm_logits = ops.softmax_cross_entropy_with_grad(
        mlm_logits, batch["mlm_labels"], count=mlm_count
    )
    pooled, pooler_cache = _pooler_forward(params, hidden)
    sop_logits_, sop_cache = ops.linear_forward(pooled, params["sop_weight"], params["sop_bias"])
    sop_loss, d_sop_logits = ops.softmax_cross_entropy_with_grad(
        sop_logits_, batch["sop_labels"], count=sop_count
    )
    losses = PretrainLosses(mlm_loss=mlm_loss, sop_loss=sop_loss)
    if grads is None:
        return losses

    d_hidden_flat = np.zeros_like(hidden_flat)
    _mlm_head_backward(params, mlm_cache, d_mlm_logits, grads, d_hidden_flat)

    d_pooled, d_w, d_b = ops.linear_backward(sop_cache, d_sop_logits)
    _add(grads, "sop_weight", d_w)
    _add(grads, "sop_bias", d_b)
    lin_cache, tanh_cache = pooler_cache
    d_lin = ops.tanh_backward(tanh_cache, d_pooled)
    d_cls, d_w, d_b = ops.linear_backward(lin_cache, d_lin)
    _add(grads, "pooler_weight", d_w)
    _add(grads, "pooler_bias", d_b)

    d_hidden = d_hidden_flat.reshape(b, t, h)
    d_hidden[:, 0] += d_cls
    _encode_backward(params, config, caches, d_hidden, grads)
    return losses


def sop_logits(params, config, token_ids, type_ids, attention_mask):
    hidden = encode_forward(params, config, token_ids, type_ids, attention_mask)
    pooled, _ = _pooler_forward(params, hidden)
    return pooled @ params["sop_weight"] + params["sop_bias"]


def token_logits(params, config, token_ids, type_ids, attention_mask):
    """(batch, T, num_labels) tag scores; requires the ner head."""
    if "ner_weight" not in params:
        raise ValueError("model has no ner head")
    hidden = encode_forward(params, config, token_ids, type_ids, attention_mask)
    return hidden @ params["ner_weight"] + params["ner_bias"]


def ner_loss_and_grads(params, config, token_ids, type_ids, attention_mask,
                       label_ids, dropout_rng=None, count=None, grads=None):
    """Cross-entropy over word-initial positions (others carry ignore_index):
    the mean over them, or with `count` their summed loss over the count of
    a larger batch this one is part of. Gradients are added into `grads` (a
    new dict when None); returns (loss, grads)."""
    if "ner_weight" not in params:
        raise ValueError("model has no ner head")
    caches = []
    hidden = encode_forward(
        params, config, token_ids, type_ids, attention_mask, dropout_rng, caches
    )
    b, t, h = hidden.shape
    flat = hidden.reshape(b * t, h)
    logits, lin_cache = ops.linear_forward(flat, params["ner_weight"], params["ner_bias"])
    loss, d_logits = ops.softmax_cross_entropy_with_grad(
        logits, np.asarray(label_ids).reshape(-1), count=count
    )
    d_flat, d_w, d_b = ops.linear_backward(lin_cache, d_logits)
    grads = {} if grads is None else grads
    _add(grads, "ner_weight", d_w)
    _add(grads, "ner_bias", d_b)
    _encode_backward(params, config, caches, d_flat.reshape(b, t, h), grads)
    return loss, grads
