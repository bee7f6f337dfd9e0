"""Desk-scale differentiable binary text classifier.

Embedding -> mean pool -> tanh hidden layer -> 2-way softmax, trained with
AdamW and a linear warmup/decay schedule. Forward and backward passes are
written out by hand in numpy, so gradients are exact, which the
attribution methods rely on. Every model query is a function of the
pooled vector: ``forward_pooled`` and ``pooled_grad`` take pooled rows
with any leading axes, (..., d), and so does a duck-typed model's own
``pooled_forward`` and ``pooled_grad``, which stand in for the MLP.
Masked-input queries (LIME's and KernelSHAP's mask rows) skip the
pooled rows: pooling is linear, so ``masked_probs`` folds it into the
first layer, ``[masks | 1] @ [X @ w1 / n ; b1]``, one product per input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
UNK_ID = 1

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def split_text(text):
    """Lowercase and split on whitespace/punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    token_to_id: dict
    id_to_token: list
    aliases: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.id_to_token)

    def lookup(self, token):
        token = self.aliases.get(token, token)
        return self.token_to_id.get(token, UNK_ID)


@dataclass
class TokenSeq:
    ids: np.ndarray
    tokens: list

    @property
    def n(self):
        return len(self.tokens)


@dataclass
class ModelConfig:
    embed_dim: int = 16
    hidden_dim: int = 32
    n_classes: int = 2


@dataclass
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-3
    warmup_steps: int = 500
    batch_size: int = 32
    seed: int = 0
    betas: tuple = (0.9, 0.999)
    weight_decay: float = 0.01
    eps: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning rate must be finite and positive")


@dataclass
class Prediction:
    probs: np.ndarray
    predicted_class: int


@dataclass
class ClassifierModel:
    emb: np.ndarray  # (vocab, d)
    w1: np.ndarray  # (d, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, 2)
    b2: np.ndarray  # (2,)
    config: ModelConfig

    def params(self):
        return {"emb": self.emb, "w1": self.w1, "b1": self.b1,
                "w2": self.w2, "b2": self.b2}


def build_vocab(corpus, aliases=None):
    """Build a vocabulary from an iterable of texts, ids in sorted token
    order after the pad and unknown tokens. ``aliases`` maps surface
    tokens onto a canonical token; aliased tokens share one embedding row.
    """
    corpus = list(corpus)
    if not corpus:
        raise DataError("empty corpus")
    aliases = dict(aliases or {})
    tokens = {aliases.get(tok, tok) for text in corpus
              for tok in split_text(text)}
    specials = [PAD_TOKEN, UNK_TOKEN]
    id_to_token = specials + sorted(tokens - set(specials))
    return Vocabulary({t: i for i, t in enumerate(id_to_token)},
                      id_to_token, aliases)


def tokenize(vocab, text):
    tokens = split_text(text)
    if not tokens:
        raise DataError(f"text has no tokens: {text!r}")
    ids = np.array([vocab.lookup(t) for t in tokens], dtype=np.int64)
    return TokenSeq(ids=ids, tokens=tokens)


def init_model(vocab_size, config=None, seed=0):
    """Uniform(-0.1, 0.1) initialization from a seeded generator."""
    cfg = config or ModelConfig()
    rng = np.random.default_rng(seed)
    d, h = cfg.embed_dim, cfg.hidden_dim

    def u(*shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    return ClassifierModel(
        emb=u(vocab_size, d), w1=u(d, h), b1=u(h), w2=u(h, cfg.n_classes),
        b2=u(cfg.n_classes), config=cfg,
    )


def embed(model, seq):
    """Embedding matrix (n, d) for a token sequence."""
    return model.emb[seq.ids]


def _softmax(logits):
    """Softmax over the last axis, into a new array.

    The row max and row sum run over the class columns one at a time,
    which is cheaper than a numpy reduction over a short axis. For fewer
    than 8 classes numpy adds in that same order, so the bits equal
    ``e / e.sum(axis=-1)`` (checked on the SkylakeX, Haswell, Sandybridge
    and Prescott kernels).
    """
    classes = range(1, logits.shape[-1])
    top = logits[..., 0].copy()
    for j in classes:
        np.maximum(top, logits[..., j], out=top)
    e = logits - top[..., None]
    np.exp(e, out=e)
    total = e[..., 0].copy()
    for j in classes:
        total += e[..., j]
    e /= total[..., None]
    return e


def _hidden_logits(pooled, w1, b1, w2, b2):
    """tanh hidden layer and logits, computed in one (rows, h) buffer.

    A second live (rows, h) temporary would land on fresh pages on large
    batches and cost page faults; in place, the bits are the same
    (checked on the SkylakeX, Haswell, Sandybridge and Prescott kernels).
    """
    hidden = pooled @ w1
    hidden += b1
    np.tanh(hidden, out=hidden)
    logits = hidden @ w2
    logits += b2
    return hidden, logits


def forward_pooled(model, pooled):
    """Hidden layer + softmax on already mean-pooled vectors (batched).

    ``pooled`` has shape (..., d); returns (probs, logits) of shape (..., 2).
    A duck-typed model's own ``pooled_forward(pooled)`` is used as-is.
    """
    custom = getattr(model, "pooled_forward", None)
    if custom is not None:
        return custom(pooled)
    _, logits = _hidden_logits(pooled, model.w1, model.b1, model.w2,
                               model.b2)
    return _softmax(logits), logits


def masked_probs(model, X, masks1, target):
    """p(target) of X (..., n, d) under each binary token mask row of
    ``masks``, shape (..., rows), without pooled rows, from ``masks1 =
    [masks | 1]`` (rows, n + 1), which a design keeps beside its rows.

    Pooling is linear, so the first layer folds into one product,
    ``[masks | 1] @ [X @ w1 / n ; b1]``; then ``tanh`` in place, and
    ``p_t = 1 / sum_c exp(l_c - l_t)`` from the logit differences
    ``hidden @ (w2 - w2[:, t]) + (b2 - b2[t])``, any class count. A
    logit gap past exp's range gives p = 0, the limit. A duck-typed
    model's own ``pooled_forward`` is used on ``masks @ X / n``.
    """
    n = X.shape[-2]
    custom = getattr(model, "pooled_forward", None)
    if custom is not None:
        pooled = masks1[:, :n] @ X
        pooled /= n
        return custom(pooled)[0][..., target]
    first = np.empty(X.shape[:-2] + (n + 1, len(model.b1)))
    np.matmul(X, model.w1, out=first[..., :n, :])
    first[..., :n, :] /= n
    first[..., n, :] = model.b1
    hidden = masks1 @ first
    np.tanh(hidden, out=hidden)
    gaps = hidden @ (model.w2 - model.w2[:, target, None])
    gaps += model.b2 - model.b2[target]
    with np.errstate(over="ignore"):
        np.exp(gaps, out=gaps)
    total = gaps @ np.ones(gaps.shape[-1])
    return np.reciprocal(total, out=total)


def forward(model, embeddings):
    """Predict one input from its (n, d) embeddings, or a list of inputs
    from a (b, n, d) stack of one length; raises DataError on empty or
    non-finite embeddings, NumericalError on non-finite probabilities."""
    embeddings = np.asarray(embeddings, dtype=float)
    if embeddings.ndim not in (2, 3) or embeddings.shape[-2] < 1:
        raise DataError("embeddings must be a non-empty (n, d) matrix "
                        "or a (b, n, d) stack")
    if not np.all(np.isfinite(embeddings)):
        raise DataError("non-finite values in input embeddings")
    probs, _ = forward_pooled(model, embeddings.mean(axis=-2))
    if not np.all(np.isfinite(probs)):
        raise NumericalError("non-finite model output")
    preds = [Prediction(p, int(np.argmax(p))) for p in np.atleast_2d(probs)]
    return preds if embeddings.ndim == 3 else preds[0]


def pooled_grad(model, pooled, target_class):
    """d p(target) / d pooled vector, exact reverse mode, batched over rows.

    ``pooled`` has shape (..., d); so does the result. As in
    ``forward_pooled``, a duck-typed model's own ``pooled_grad(pooled,
    target_class)`` method is used as-is. The classifier mean-pools its
    input, so every token of an (n, d) input X has the gradient
    ``pooled_grad(model, X.mean(axis=0), target) / n``.
    """
    custom = getattr(model, "pooled_grad", None)
    if custom is not None:
        return custom(pooled, target_class)
    hidden, logits = _hidden_logits(pooled, model.w1, model.b1, model.w2,
                                    model.b2)
    probs = _softmax(logits)
    # d p_t / d logits = p_t * (onehot_t - p)
    dlogits = probs[..., target_class, None] * (
        np.eye(probs.shape[-1])[target_class] - probs)
    return ((dlogits @ model.w2.T) * (1.0 - hidden**2)) @ model.w1.T


def grad_wrt_embeddings_matrix(model, embeddings, target_class):
    """d p(target) / d embeddings (..., n, d): the pooled gradient over n,
    shared by every token, as a read-only broadcast view."""
    X = np.asarray(embeddings, dtype=float)
    g = pooled_grad(model, X.mean(axis=-2, keepdims=True), target_class)
    return np.broadcast_to(g / X.shape[-2], X.shape)


def predict(model, seqs):
    """A Prediction of each token sequence, in order: one ``forward`` of
    each token length's stacked embeddings, padded with copies of the last
    to a multiple of 4 rows, so that every row is in the products' 4-row
    body and its bits depend on no other sequence."""
    preds = [None] * len(seqs)
    for n in dict.fromkeys(seq.n for seq in seqs):
        idx = [i for i, seq in enumerate(seqs) if seq.n == n]
        ids = np.pad([seqs[i].ids for i in idx], ((0, -len(idx) % 4), (0, 0)),
                     "edge")
        for i, pred in zip(idx, forward(model, model.emb[ids])):
            preds[i] = pred
    return preds


def _lr_at(step, total_steps, cfg):
    """Linear warmup to cfg.learning_rate, then linear decay to zero."""
    warmup = min(cfg.warmup_steps, total_steps)
    if warmup > 0 and step <= warmup:
        return cfg.learning_rate * step / warmup
    if total_steps == warmup:
        return cfg.learning_rate
    return cfg.learning_rate * (total_steps - step) / (total_steps - warmup)


def _batch_arrays(seqs, labels):
    lengths = np.array([s.n for s in seqs])
    max_len = lengths.max()
    ids = np.zeros((len(seqs), max_len), dtype=np.int64)
    mask = np.zeros((len(seqs), max_len))
    for i, s in enumerate(seqs):
        ids[i, :s.n] = s.ids
        mask[i, :s.n] = 1.0
    return ids, mask, lengths, np.asarray(labels, dtype=np.int64)


def train(model, data, cfg):
    """Train on (TokenSeq, label) pairs with AdamW; returns (model, log).

    Deterministic given cfg.seed. The input model is not modified; the
    returned model holds the trained parameters. Raises NumericalError
    when training leaves a parameter non-finite.
    """
    data = list(data)
    labels_present = {lbl for _, lbl in data}
    if len(labels_present) < 2:
        raise DataError("training data must contain both classes")

    # parameters, gradients and both AdamW moments are flat buffers, with
    # one view per parameter, so one elementwise update covers them all
    init = model.params()
    theta = np.concatenate([v.ravel() for v in init.values()])
    grad, m_state, v_state = (np.zeros_like(theta) for _ in range(3))
    params, grads, offset = {}, {}, 0
    for k, v in init.items():
        params[k] = theta[offset:offset + v.size].reshape(v.shape)
        grads[k] = grad[offset:offset + v.size].reshape(v.shape)
        offset += v.size
    V, d = init["emb"].shape
    rng = np.random.default_rng(cfg.seed)
    b1c, b2c = cfg.betas

    # padded once; a batch's rows, cut to its longest input, are the
    # arrays _batch_arrays would build for that batch alone
    all_ids, all_mask, all_lengths, all_y = _batch_arrays(
        [s for s, _ in data], [l for _, l in data])
    n_batches = (len(data) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * n_batches
    step = 0
    log = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        epoch_loss = 0.0
        correct = 0
        for start in range(0, len(data), cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            lengths, y = all_lengths[rows], all_y[rows]
            max_len = lengths.max()
            ids, mask = all_ids[rows, :max_len], all_mask[rows, :max_len]
            B = len(rows)

            pooled = (params["emb"][ids] * mask[:, :, None]).sum(axis=1)
            pooled /= lengths[:, None]
            hidden, logits = _hidden_logits(pooled, params["w1"],
                                            params["b1"], params["w2"],
                                            params["b2"])
            probs = _softmax(logits)
            p_true = probs[np.arange(B), y]
            epoch_loss += float(-np.log(np.clip(p_true, 1e-12, None)).sum())
            correct += int((probs.argmax(axis=1) == y).sum())

            dlogits = probs  # updated in place from here on
            dlogits[np.arange(B), y] -= 1.0
            dlogits /= B
            grads["w2"][...] = hidden.T @ dlogits
            grads["b2"][...] = dlogits.sum(axis=0)
            dpre = (dlogits @ params["w2"].T) * (1.0 - hidden**2)
            grads["w1"][...] = pooled.T @ dpre
            grads["b1"][...] = dpre.sum(axis=0)
            dpooled = (dpre @ params["w1"].T) / lengths[:, None]
            # bincount adds each (row, column) bin's terms in input order,
            # the order of a row-by-row scatter-add
            grads["emb"][...] = np.bincount(
                (ids[:, :, None] * d + np.arange(d)).ravel(),
                weights=(dpooled[:, None, :] * mask[:, :, None]).ravel(),
                minlength=V * d).reshape(V, d)

            step += 1
            lr = _lr_at(step, total_steps, cfg)
            m_state *= b1c
            m_state += (1 - b1c) * grad
            v_state *= b2c
            v_state += (1 - b2c) * grad**2
            denom = np.sqrt(v_state / (1 - b2c**step))
            denom += cfg.eps
            update = m_state / (1 - b1c**step)
            update /= denom
            update += cfg.weight_decay * theta
            update *= lr
            theta -= update
        log.append({"epoch": epoch, "loss": epoch_loss / len(data),
                    "accuracy": correct / len(data)})

    if not np.all(np.isfinite(theta)):
        raise NumericalError(
            "training diverged: non-finite model parameters "
            f"(final epoch loss {log[-1]['loss']})")
    trained = ClassifierModel(config=model.config,
                              **{k: v.copy() for k, v in params.items()})
    return trained, log

