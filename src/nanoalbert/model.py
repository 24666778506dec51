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
into one gradient dict, summing the shared block's L applications.
Inference keeps no cache and computes no GELU slope.

One rule cuts every batch (length_parts) and one runner walks it
(map_parts): length-sorted parts of at most PART_POSITIONS positions (and,
in inference, an eval batch of rows), each trimmed to its longest row, so
padding is never computed and activations do not grow with the batch. A
training step's parts, each divided by the whole step's count, add into one
loss and one gradient dict. The pretraining pass also counts its SOP hits,
so held-out SOP accuracy needs no second forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    consumes exactly one stream word per element."""
    # only weight initialisation needs this 0.3 s, 20 MiB import
    from scipy import special

    n = int(np.prod(shape))
    lo = special.ndtr(-INIT_CLIP_SIGMA)
    hi = special.ndtr(INIT_CLIP_SIGMA)
    u = lo + (hi - lo) * rng.uniform_block(n)
    return (special.ndtri(u) * std).astype(dtype).reshape(shape)


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
    _add(grads, f"{name}_weight", d_w)
    _add(grads, f"{name}_bias", d_b)
    return d_x


def _norm(params, name, x):
    y, cache = ops.layer_norm_forward(x, params[f"{name}_gain"], params[f"{name}_bias"])
    return y, (name, cache)


def _norm_back(grads, cache, d_out):
    name, norm_cache = cache
    d_x, d_gain, d_bias = ops.layer_norm_backward(norm_cache, d_out)
    _add(grads, f"{name}_gain", d_gain)
    _add(grads, f"{name}_bias", d_bias)
    return d_x


def _add(grads, name, value):
    grads[name] = grads.get(name, 0.0) + value


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


def _attention_scale(config):
    # python float, so float32 activations stay float32
    return (config.hidden_size // config.num_heads) ** -0.5


def _block_forward(params, config, x, neg_mask, backward=True):
    qkv, qkv_caches = zip(*(
        _linear(params, f"block_{part}", x) for part in ("query", "key", "value")
    ))
    q, k, v = (_split_heads(z, config.num_heads) for z in qkv)

    scores = q @ k.swapaxes(-1, -2)
    scores *= _attention_scale(config)
    scores += neg_mask
    probs, _ = ops.softmax_forward(scores)
    del scores
    ctx = _join_heads(probs @ v)
    attn_out, out_cache = _linear(params, "block_attn_output", ctx)
    x1, attn_norm_cache = _norm(params, "block_attn_norm", x + attn_out)

    inner, in_cache = _linear(params, "block_ffn_in", x1)
    act, act_cache = ops.gelu_forward(inner) if backward else (ops.gelu(inner), None)
    ffn_out, out2_cache = _linear(params, "block_ffn_out", act)
    x2, ffn_norm_cache = _norm(params, "block_ffn_norm", x1 + ffn_out)
    cache = (
        qkv_caches, (q, k, v), probs, out_cache, attn_norm_cache,
        in_cache, act_cache, out2_cache, ffn_norm_cache,
    )
    return x2, cache


def _block_backward(config, cache, d_out, grads):
    (qkv_caches, (q, k, v), probs, out_cache, attn_norm_cache,
     in_cache, act_cache, out2_cache, ffn_norm_cache) = cache
    scale = _attention_scale(config)

    d_x1_plus = _norm_back(grads, ffn_norm_cache, d_out)
    d_act = _linear_back(grads, out2_cache, d_x1_plus)
    d_inner = ops.gelu_backward(act_cache, d_act)
    d_x1_ffn = _linear_back(grads, in_cache, d_inner)
    del d_act, d_inner  # (b, T, I) each: free them before attention's backward
    d_x1 = d_x1_plus + d_x1_ffn

    d_x_plus = _norm_back(grads, attn_norm_cache, d_x1)
    d_ctx = _linear_back(grads, out_cache, d_x_plus)

    d_ctx = _split_heads(d_ctx, config.num_heads)
    d_probs = d_ctx @ v.swapaxes(-1, -2)
    d_v = probs.swapaxes(-1, -2) @ d_ctx
    d_scores = ops.softmax_backward(probs, d_probs)
    del d_probs
    d_q = d_scores @ k
    d_q *= scale
    d_k = d_scores.swapaxes(-1, -2) @ q
    d_k *= scale

    d_x = d_x_plus
    for d_part, lin_cache in zip((d_q, d_k, d_v), qkv_caches):
        d_x = d_x + _linear_back(grads, lin_cache, _join_heads(d_part))
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


def map_parts(part_fn, records, attention_mask, max_rows=None) -> list:
    """(rows, part_fn(records[rows], t)) for each part length_parts cuts
    attention_mask into, in part order; t is the part's trimmed length."""
    return [(rows, part_fn(records[rows], t)) for rows, t in length_parts(attention_mask, max_rows)]


def encode_forward(params, config, token_ids, type_ids, attention_mask, caches=None):
    """Hidden states (batch, T, H) for a batch padded to T. Callers pass
    batches sorted by length and trimmed (length_parts), so T is the part's
    longest row. A list passed as `caches` gets the embedding's and then
    each layer's cache (L + 1) for _encode_backward; without one, no layer's
    cache outlives the layer."""
    token_ids = np.asarray(token_ids)
    type_ids = np.asarray(type_ids)
    attention_mask = np.asarray(attention_mask)
    _check_inputs(config, token_ids, attention_mask)

    dtype = params["token_embedding"].dtype
    neg_mask = ((1 - attention_mask) * NEG_INF).astype(dtype)[:, None, None, :]

    x, cache = _embed_forward(params, config, token_ids, type_ids)
    for _ in range(config.num_layers):
        if caches is not None:
            caches.append(cache)
        del cache  # inference holds no cache while the next layer runs
        x, cache = _block_forward(params, config, x, neg_mask, caches is not None)
    if caches is not None:
        caches.append(cache)
    return x


def _encode_backward(params, config, caches, d_hidden, grads):
    d_x = d_hidden
    for layer_cache in reversed(caches[1:]):
        d_x = _block_backward(config, layer_cache, d_x, grads)
    _embed_backward(params, caches[0], d_x, grads)


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
    _add(grads, "mlm_output_bias", d_logits.sum(axis=0))
    _add(grads, "token_embedding", d_logits.T @ normed)  # tied decoder weight
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


def pretrain_loss_and_grads(params, config, batch, counts=None, grads=None):
    """pretrain_loss and its gradients, added into `grads` (a new dict when
    None); returns (losses, grads)."""
    grads = {} if grads is None else grads
    return _pretrain_pass(params, config, batch, grads, counts), grads


def _pretrain_pass(params, config, batch, grads, counts=None):
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
                       label_ids, count=None, grads=None):
    """Cross-entropy over word-initial positions (others carry IGNORE_INDEX):
    the mean over them, or with `count` their summed loss over the count of
    a larger batch this one is part of. Gradients are added into `grads` (a
    new dict when None); returns (loss, grads)."""
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
    grads = {} if grads is None else grads
    d_flat = _linear_back(grads, lin_cache, d_logits)
    _encode_backward(params, config, caches, d_flat.reshape(b, t, h), grads)
    return loss, grads
