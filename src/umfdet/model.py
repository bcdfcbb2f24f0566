"""Desk-scale multimodal detector: patch/feature image embedding, a shared
pre-norm encoder over the fused visual+text sequence, a category-aware
mixture stage, and a causal decoder that writes the rationale and the
answer as text.

Training computes two masked language-model losses over the decoder output:
one restricted to the answer span (markers plus trailing end token) and one
to the reasoning span (markers inclusive). Generation is greedy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import ndtensor as nd
from .cmoe import (Routing, bias, cmoe_forward, expert_forward, expert_layout, glorot,
                   layer_layout)
from .data import ImagePayload, NewsSample
from .errors import ConfigError, DataError, GraphError, check_record
from .instruct import (ANSWER_CLOSE, ANSWER_OPEN, BOS, EOS, PAD, THINK_CLOSE, THINK_OPEN,
                       InstructionTemplate, Vocabulary, render_prompt, target_parts)
from .ndtensor import Tensor

PATCH = 8
_NEG = -1e30
# Posts per pass of the encoder and mixture stack (the default train batch),
# which bounds the size of its temporaries; see encode.
ENCODE_GROUP = 8


@dataclass
class ModelConfig:
    h: int = 64
    h_v: int = 64
    n_heads: int = 4
    n_enc: int = 1
    n_moe: int = 2
    n_dec: int = 1
    expansion_ratio: int = 2
    dropout_rate: float = 0.1
    gate_scaling: bool = True
    moe_enabled: bool = True
    lambda_cot: float = 1.0
    vocab_size: int = 512
    max_len: int = 192
    max_vis_tokens: int = 64
    in_channels: int = 1
    gen_max_tokens: int = 64

    def __post_init__(self):
        for key in ("lambda_cot", "dropout_rate"):
            if not math.isfinite(getattr(self, key)):  # NaN fails no comparison below
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.h <= 0 or self.n_heads <= 0 or self.h % self.n_heads != 0:
            raise ConfigError(f"h={self.h} must be positive and divisible by n_heads={self.n_heads}")
        if not 1 <= self.n_moe <= 4:
            raise ConfigError(f"n_moe must lie in [1, 4], got {self.n_moe}")
        if self.n_enc < 1 or self.n_dec < 1:
            raise ConfigError("n_enc and n_dec must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.lambda_cot < 0:
            raise ConfigError(f"lambda_cot must be >= 0, got {self.lambda_cot}")
        if self.vocab_size < 9:
            raise ConfigError("vocab_size must cover the reserved ids")
        if self.max_len < 16:
            raise ConfigError(f"max_len too small: {self.max_len}")
        if self.in_channels not in (1, 3):
            raise ConfigError(f"in_channels must be 1 or 3, got {self.in_channels}")
        if (self.h_v < 0 or self.expansion_ratio < 1 or self.max_vis_tokens < 1
                or self.gen_max_tokens < 4):
            raise ConfigError("h_v, expansion_ratio, max_vis_tokens, gen_max_tokens out of range")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d) -> "ModelConfig":
        """A config from config.json's object; an int may stand for a float."""
        types = {f.name: (int, float) if type(f.default) is float else type(f.default)
                 for f in fields(cls)}
        return cls(**check_record(d, types, "model config", error=ConfigError))


@dataclass
class ModelParams:
    """All weights, name -> Tensor in store order; each weight's values and
    gradient are views, in that order, into values and grads (build_store)."""
    config: ModelConfig
    tensors: dict
    values: np.ndarray = field(repr=False)
    grads: np.ndarray = field(repr=False)


def _layout(config: ModelConfig) -> list:
    """Layout rows, (name, shape, init), of every weight the config names,
    in store and draw order; init is a Normal std (a float), "zeros" or
    "ones". The mixture's rows come from cmoe."""
    h, r, v = config.h, config.expansion_ratio, config.vocab_size

    def ln(name):
        return [(f"{name}.gamma", (h,), "ones"), bias(f"{name}.beta", h)]

    def attn(name):
        return ([glorot(f"{name}.{w}", h, h) for w in ("Wq", "Wk", "Wv", "Wo")]
                + [bias(f"{name}.{b}", h) for b in ("bq", "bk", "bv", "bo")])

    def ffn(name):
        return [glorot(f"{name}.W1", h, r * h), bias(f"{name}.b1", r * h),
                glorot(f"{name}.W2", r * h, h), bias(f"{name}.b2", h)]

    rows = [("tok_emb", (v, h), 0.02), ("pos_emb", (config.max_len, h), 0.02),
            ("vis_pos_emb", (config.max_vis_tokens, h), 0.02),
            glorot("vis_proj.W", config.h_v, h), bias("vis_proj.b", h),
            glorot("patch_proj.W", config.in_channels * PATCH * PATCH, h),
            bias("patch_proj.b", h)]
    for i in range(config.n_enc):
        e = f"enc.{i}"
        rows += ln(f"{e}.ln1") + attn(f"{e}.attn") + ln(f"{e}.ln2") + ffn(f"{e}.ffn")
    for i in range(config.n_moe):
        rows += ln(f"cmoe.{i}.ln") + (layer_layout(f"cmoe.{i}", h, r) if config.moe_enabled
                                      else expert_layout(f"cmoe.{i}.solo", h, r))
    rows += ln("moe_out_ln")
    for i in range(config.n_dec):
        d = f"dec.{i}"
        rows += (ln(f"{d}.ln1") + attn(f"{d}.self_attn") + ln(f"{d}.ln2")
                 + attn(f"{d}.cross_attn") + ln(f"{d}.ln3") + ffn(f"{d}.ffn"))
    return rows + ln("final_ln") + [glorot("head.W", h, v), bias("head.b", v)]


def build_store(rows, rng: np.random.Generator | None):
    """(tensors, values, grads) for layout rows: values and grads are flat
    zeroed arrays holding the rows in order, and tensors maps each name to a
    trainable Tensor over its value and gradient views. With rng, the rows
    are filled in order, a Normal std as rng.normal(0.0, std, shape) and
    "ones" as 1; with rng None nothing is drawn or written."""
    sizes = [math.prod(shape) for _, shape, _ in rows]
    values, grads = np.zeros(sum(sizes)), np.zeros(sum(sizes))  # calloc: no page touched yet
    tensors, start = {}, 0
    for (name, shape, init), n in zip(rows, sizes):
        t = tensors[name] = Tensor(values[start:start + n].reshape(shape), requires_grad=True)
        t._node.grad = grads[start:start + n].reshape(shape)
        start += n
        if rng is not None and init != "zeros":
            t.values[...] = 1.0 if init == "ones" else rng.normal(0.0, init, shape)
    return tensors, values, grads


def init_model(config: ModelConfig, rng: np.random.Generator | None) -> ModelParams:
    """Every weight the config names, in a stable order, drawn from rng. With
    rng None nothing is drawn and every weight is 0, layer-norm gains
    included: a store for a checkpoint read to fill. Sizes that cannot be
    allocated are a ConfigError."""
    h, r = config.h, config.expansion_ratio
    try:
        return ModelParams(config, *build_store(_layout(config), rng))
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"cannot allocate the weights of h={h}, h_v={config.h_v}, "
                          f"vocab_size={config.vocab_size}, max_len={config.max_len}, "
                          f"max_vis_tokens={config.max_vis_tokens}, expansion_ratio={r}: "
                          f"{exc}") from None


# ---------------------------------------------------------------------------
# forward pieces


def _ln(t, name, x):
    return nd.layer_norm(x, t[f"{name}.gamma"], t[f"{name}.beta"])


def _attention(t, name, x_q, x_kv, n_heads, mask, batch=1, cache=None):
    """Multi-head attention over batch sequences stacked as row blocks;
    x_kv None means self-attention. A cache dict keeps keys and values across
    decoder calls, split into heads: cross-attention projects the memory
    once, and self-attention writes the new rows of each sequence after its
    first cache["len"] rows, in buffers of cache["size"] rows per sequence."""
    q = nd.linear(x_q, t[f"{name}.Wq"], t[f"{name}.bq"])
    if cache is not None and x_kv is not None and name in cache:
        k, v = cache[name]
    else:
        src = x_q if x_kv is None else x_kv
        k = nd.linear(src, t[f"{name}.Wk"], t[f"{name}.bk"])
        v = nd.linear(src, t[f"{name}.Wv"], t[f"{name}.bv"])
        if cache is not None:
            k, v = _cache_kv(cache, name, k, v, batch, n_heads, grow=x_kv is None)
    return nd.linear(nd.attention(q, k, v, n_heads, mask, batch), t[f"{name}.Wo"],
                     t[f"{name}.bo"])


def _cache_kv(cache, name, k, v, batch, n_heads, grow):
    """Split [batch * n, H] keys and values into heads, [batch, heads, n, dh],
    and keep them in the cache under name: whole without grow (the memory of
    cross-attention); with grow (self-attention), the n new rows of each
    sequence go after its first cache["len"] rows in [batch, heads, size, dh]
    buffers, and the filled rows are returned."""
    n = k.shape[0] // batch
    kh, vh = (x.values.reshape(batch, n, n_heads, -1).transpose(0, 2, 1, 3) for x in (k, v))
    if not grow:  # copied contiguous once, since every later step reads them whole
        cache[name] = Tensor(np.ascontiguousarray(kh)), Tensor(np.ascontiguousarray(vh))
        return cache[name]
    start = cache["len"]
    if name not in cache:
        cache[name] = tuple(np.zeros(kh.shape[:2] + (cache["size"], kh.shape[3]))
                            for _ in range(2))
    for buf, new in zip(cache[name], (kh, vh)):
        buf[:, :, start:start + n] = new
    return [Tensor(buf[:, :, :start + n]) for buf in cache[name]]


def _key_padding(lengths, n):
    """Additive [B, 1, n] mask hiding rows at or after each sequence's
    length, or None when every sequence fills all n rows."""
    lengths = np.asarray(lengths)
    if (lengths == n).all():
        return None
    return np.where(np.arange(n) < lengths[:, None], 0.0, _NEG)[:, None, :]


def _ffn(t, name, x, rng, rate):
    u = nd.dropout(nd.silu(nd.linear(x, t[f"{name}.W1"], t[f"{name}.b1"])), rate, rng)
    return nd.linear(u, t[f"{name}.W2"], t[f"{name}.b2"])


def embed_text(table, pos_table, ids, start=0):
    """Token embedding plus learned positional rows: [T] -> [T, H], or
    [B, T] -> [B*T, H] for B rows of tokens. Each row's tokens sit at
    positions start, start + 1, ..."""
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.shape[-1]
    if n == 0:
        raise DataError("cannot embed an empty token sequence")
    if start + n > pos_table.values.shape[0]:
        raise DataError(f"sequence length {start + n} exceeds positional table "
                        f"of {pos_table.values.shape[0]} rows")
    tok = nd.embedding(table, ids.ravel())
    pos = nd.embedding(pos_table, np.tile(np.arange(start, start + n), ids.size // n))
    return nd.add(tok, pos)


def embed_image(params: ModelParams, payload: ImagePayload, sample_id: str):
    """Image payload -> [T_v, H] visual tokens with positional rows added."""
    cfg = params.config
    t = params.tensors
    if payload.path is not None:
        raise DataError(f"sample {sample_id}: image payload is an unresolved path "
                        f"({payload.path}); resolve it before the forward pass")
    if payload.feat is not None:
        feat = np.asarray(payload.feat, dtype=np.float64)
        if feat.shape[1] != cfg.h_v:
            raise DataError(f"sample {sample_id}: feature width {feat.shape[1]} != h_v {cfg.h_v}")
        tokens = nd.linear(Tensor(feat), t["vis_proj.W"], t["vis_proj.b"])
    else:
        raw = np.asarray(payload.raw, dtype=np.float64)
        c, s = raw.shape[0], raw.shape[1]
        if c != cfg.in_channels:
            raise DataError(f"sample {sample_id}: image has {c} channels, model expects "
                            f"{cfg.in_channels}")
        if s % PATCH != 0:
            raise DataError(f"sample {sample_id}: image side {s} is not a multiple of {PATCH}")
        g = s // PATCH
        patches = (raw.reshape(c, g, PATCH, g, PATCH)
                      .transpose(1, 3, 0, 2, 4)
                      .reshape(g * g, c * PATCH * PATCH))
        tokens = nd.linear(Tensor(patches), t["patch_proj.W"], t["patch_proj.b"])
    n = tokens.shape[0]
    if n > cfg.max_vis_tokens:
        raise DataError(f"sample {sample_id}: {n} visual tokens exceed "
                        f"max_vis_tokens {cfg.max_vis_tokens}")
    pos = nd.embedding(t["vis_pos_emb"], np.arange(n))
    return nd.add(tokens, pos)


def encode(params: ModelParams, samples, vocab: Vocabulary,
           template: InstructionTemplate, rng: np.random.Generator | None = None):
    """Fused memory over [visual tokens; prompt tokens] after the encoder
    stack, the mixture stage and the output norm. Dropout runs only when a
    generator is passed; without one nothing is drawn.

    One NewsSample gives (memory [T, H], routings). A list of B samples is
    padded to T = max(lengths) rows per sample: sample b fills the first
    lengths[b] of the T rows of block b, no row attends to padding or to
    another sample, and the result is (memory [B*T, H], lengths, routings).
    The stack runs on consecutive groups of at most ENCODE_GROUP samples, so
    its temporaries, the [group, heads, T, T] attention scores among them,
    stay small; the groups' memories are concatenated. routings holds one
    cmoe.Routing per mixture layer, the groups' routings concatenated, and
    is empty without the mixture.
    """
    single = isinstance(samples, NewsSample)
    batch = [samples] if single else list(samples)
    if not batch:
        raise DataError("encode needs at least one sample")
    cfg = params.config
    t = params.tensors
    rate = cfg.dropout_rate
    seqs = []
    for s in batch:
        prompt_ids = vocab.encode(render_prompt(template, s.title))
        if len(prompt_ids) > cfg.max_len:
            raise DataError(f"sample {s.id}: prompt of {len(prompt_ids)} tokens exceeds "
                            f"max_len {cfg.max_len}")
        seqs.append((embed_image(params, s.image, s.id),
                     embed_text(t["tok_emb"], t["pos_emb"], prompt_ids)))
    lengths = [e_v.shape[0] + e_t.shape[0] for e_v, e_t in seqs]
    n = max(lengths)
    memories, layers = [], []
    for g in range(0, len(batch), ENCODE_GROUP):
        group = lengths[g:g + ENCODE_GROUP]
        x = nd.concat([part for (e_v, e_t), m in zip(seqs[g:g + ENCODE_GROUP], group)
                       for part in (e_v, e_t, Tensor(np.zeros((n - m, cfg.h))))])
        mask = _key_padding(group, n)
        for i in range(cfg.n_enc):
            a = _attention(t, f"enc.{i}.attn", _ln(t, f"enc.{i}.ln1", x), None, cfg.n_heads,
                           mask, len(group))
            x = nd.add(x, nd.dropout(a, rate, rng))
            f = _ffn(t, f"enc.{i}.ffn", _ln(t, f"enc.{i}.ln2", x), rng, rate)
            x = nd.add(x, nd.dropout(f, rate, rng))
        routings = []
        for i in range(cfg.n_moe):
            normed = _ln(t, f"cmoe.{i}.ln", x)
            if cfg.moe_enabled:
                out, routing = cmoe_forward(t, f"cmoe.{i}", normed, group, rng, rate,
                                            cfg.gate_scaling)
                routings.append(routing)
            else:
                out = expert_forward(t, f"cmoe.{i}.solo", normed, rng, rate)
            x = nd.add(x, out)
        memories.append(_ln(t, "moe_out_ln", x))
        layers.append(routings)
    if len(memories) == 1:
        x, routings = memories[0], layers[0]
    else:
        x = nd.concat(memories)
        routings = [Routing(nd.concat([r.logits for r in rs]), nd.concat([r.weights for r in rs]),
                            np.concatenate([r.selected for r in rs])) for rs in zip(*layers)]
    return (x, routings) if single else (x, lengths, routings)


def decode(params: ModelParams, memory, ids, rng: np.random.Generator | None = None,
           cache: dict | None = None, memory_lengths=None):
    """Causal decoder over B target rows in lockstep; returns [B*n, V] logits.
    Dropout runs only when a generator is passed; without one nothing is
    drawn.

    ids is one target [n] (B = 1) or B targets [B, n]; memory is B row blocks
    [B*T, H] whose first memory_lengths[b] rows are valid (None: all rows).
    Without a cache, ids are the whole target prefixes. With a cache dict
    (under no_grad), ids continue the tokens already decoded through it, at
    the positions after them: the self-attention keys and values go into
    head-major buffers of cache["size"] rows per target (default max_len),
    and attention reads only their filled rows. The first call also keeps the
    memory's keys, values and padding mask in the cache for the calls after.
    """
    cfg = params.config
    t = params.tensors
    rate = cfg.dropout_rate
    ids = np.asarray(ids, dtype=np.int64)
    b, n = (1, ids.size) if ids.ndim == 1 else ids.shape
    start = 0
    if cache is not None:
        if nd.is_grad_enabled():
            raise GraphError("a decode cache holds no gradients; decode under no_grad")
        start, size = cache.setdefault("len", 0), cache.setdefault("size", cfg.max_len)
        if start + n > size:
            raise DataError(f"{start + n} tokens exceed the decode cache of {size}")
    y = embed_text(t["tok_emb"], t["pos_emb"], ids, start)
    # Query i of the n newest sees the first start + i + 1 keys; one query sees all.
    self_mask = np.triu(np.full((n, start + n), _NEG), k=start + 1) if n > 1 else None
    if cache is not None and "memory_mask" in cache:
        memory_mask = cache["memory_mask"]
    else:
        memory_mask = (None if memory_lengths is None
                       else _key_padding(memory_lengths, memory.shape[0] // b))
        if cache is not None:
            cache["memory_mask"] = memory_mask
    for i in range(cfg.n_dec):
        a = _attention(t, f"dec.{i}.self_attn", _ln(t, f"dec.{i}.ln1", y), None,
                       cfg.n_heads, self_mask, b, cache)
        y = nd.add(y, nd.dropout(a, rate, rng))
        c = _attention(t, f"dec.{i}.cross_attn", _ln(t, f"dec.{i}.ln2", y),
                       memory, cfg.n_heads, memory_mask, b, cache)
        y = nd.add(y, nd.dropout(c, rate, rng))
        f = _ffn(t, f"dec.{i}.ffn", _ln(t, f"dec.{i}.ln3", y), rng, rate)
        y = nd.add(y, nd.dropout(f, rate, rng))
    if cache is not None:
        cache["len"] = start + n
    y = _ln(t, "final_ln", y)
    return nd.linear(y, t["head.W"], t["head.b"])


# ---------------------------------------------------------------------------
# training / generation entry points


@dataclass
class ForwardResult:
    loss_det: Tensor
    loss_cot: Tensor
    routings: list


def _target_ids(sample, vocab, config):
    """Decoder target and where its answer starts: (ids, k). ids[:k] is the
    think of instruct.target_parts between its markers, or nothing (k 0) when
    that think is empty or lambda_cot is 0; ids[k:] is the answer between its
    markers, then the end token."""
    think, answer = target_parts(sample)
    body = vocab.encode(think) if config.lambda_cot else []
    head = [THINK_OPEN, *body, THINK_CLOSE] if body else []
    ids = head + [ANSWER_OPEN, *vocab.encode(answer), ANSWER_CLOSE, EOS]
    if len(ids) > config.max_len:
        raise DataError(f"sample {sample.id}: target of {len(ids)} tokens exceeds "
                        f"max_len {config.max_len}")
    if any(THINK_OPEN <= t <= ANSWER_CLOSE for t in body):
        raise DataError(f"sample {sample.id}: rationale holds a <think>/<answer> marker "
                        f"of its own")
    return ids, len(head)


def forward_train(params: ModelParams, samples, vocab: Vocabulary,
                  template: InstructionTemplate,
                  rng: np.random.Generator | None = None) -> ForwardResult:
    """Forward pass over a list of B samples packed into one graph, yielding
    the two masked losses, each the mean over samples of the sample's mean
    over its span; a sample with no reasoning span (no accepted rationale,
    or lambda_cot 0) adds 0 to the reasoning loss and still counts in B.
    Dropout runs only when a generator is passed; without one nothing is
    drawn and the losses are deterministic.

    The samples are encoded as one padded batch and their targets decoded as
    B rows padded with PAD at the end, which the causal mask hides from every
    real position. routings holds one cmoe.Routing per mixture layer.
    """
    samples = list(samples)
    if not samples:
        raise DataError("forward_train needs at least one sample")
    targets = [_target_ids(s, vocab, params.config) for s in samples]
    b, n = len(samples), max(len(ids) for ids, _ in targets)
    dec_in = np.full((b, n), PAD)
    padded = np.full((b, n), nd.IGNORE)
    det_w, cot_w = np.zeros((b, n)), np.zeros((b, n))
    for i, (ids, k) in enumerate(targets):
        dec_in[i, :len(ids)] = [BOS] + ids[:-1]
        padded[i, :len(ids)] = ids
        det_w[i, k:len(ids)] = 1.0 / (b * (len(ids) - k))
        if k:
            cot_w[i, :k] = 1.0 / (b * k)
    memory, lengths, routings = encode(params, samples, vocab, template, rng)
    logits = decode(params, memory, dec_in, rng, memory_lengths=lengths)

    def span_loss(w):  # weighted over the span's rows; the other rows ignored
        w = w.ravel()
        return nd.cross_entropy_lm(logits, np.where(w > 0, padded.ravel(), nd.IGNORE),
                                   weights=w)

    return ForwardResult(loss_det=span_loss(det_w), loss_cot=span_loss(cot_w),
                         routings=routings)


@dataclass
class GenerationResult:
    text: str
    token_ids: list
    experts: list  # the expert index each mixture layer picked for this post


def generate(params: ModelParams, samples, vocab: Vocabulary,
             template: InstructionTemplate) -> list:
    """Greedy decode of every sample from one padded batch encode, all rows in
    lockstep with one decoder call per token step through a key/value cache.

    A row stops at its end token; decoding stops when every row has stopped
    or the budget, gen_max_tokens capped at max_len - 1, is spent. Returns
    one GenerationResult per sample, in order.
    """
    cfg = params.config
    budget = min(cfg.gen_max_tokens, cfg.max_len - 1)
    samples = list(samples)
    with nd.no_grad():
        memory, lengths, routings = encode(params, samples, vocab, template)
        cache = {"size": budget}
        nxt = np.full((len(samples), 1), BOS)
        done = np.zeros(len(samples), dtype=bool)
        out = [[] for _ in samples]
        for _ in range(budget):
            logits = decode(params, memory, nxt, cache=cache, memory_lengths=lengths)
            nxt = np.argmax(logits.values, axis=1)[:, None]
            done |= nxt[:, 0] == EOS
            if done.all():
                break
            for i in np.flatnonzero(~done):
                out[i].append(int(nxt[i, 0]))
    return [GenerationResult(text=vocab.decode(ids), token_ids=ids,
                             experts=[int(r.selected[i]) for r in routings])
            for i, ids in enumerate(out)]
