"""Deterministic toy language-model backends.

Every backend exposes per-position final hidden states plus a shared projection
head W, so next-token logits at position i are W @ h_i. Backends are immutable
after construction and safe to share across decodes; all state produced during
generation lives in PrefixActivations values.
"""

from __future__ import annotations

import abc
import json
import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .utils import _read_fields, _write_fields, gemv_rows, read_json, softmax


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class VocabSpec:
    """Token inventory. token_names, when given, must cover every id."""

    size: int
    token_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 2:
            raise InputError("vocabulary needs at least two tokens")
        if self.token_names is not None:
            object.__setattr__(self, "token_names", tuple(self.token_names))
            if len(self.token_names) != self.size:
                raise InputError("token_names length must equal vocab size")

    def name_of(self, token: int) -> str:
        if self.token_names is not None:
            return self.token_names[token]
        return str(token)


@dataclass(frozen=True)
class ProjectionHead:
    """Vocabulary projection W with shape (vocab, hidden_dim); entries finite.

    The head's products live here: W @ x per row (project_rows), W.T @ g per
    row (backproject_rows) and the block H @ W.T (project_block). An identity
    head (square, a unit diagonal, no other nonzero entry; decided once, at
    construction) computes each as the copy x + 0.0, which is the dense
    product bit for bit when x is finite: each entry of the dense product is
    x_i * 1 plus d - 1 products +-0, accumulated from +0.0, so it is x_i,
    except that -0.0 becomes +0.0. A block with a non-finite entry takes the
    dense product, where 0 * inf is NaN.
    """

    matrix: np.ndarray
    is_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 1:
            raise InputError(f"projection head must be (vocab, dim) 2-d, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("projection head entries must be finite")
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "is_identity", m.shape[0] == m.shape[1]
                           and bool(np.all(np.diagonal(m) == 1.0))
                           and np.count_nonzero(m) == m.shape[0])

    def _copies(self, x: np.ndarray) -> bool:
        return self.is_identity and bool(np.isfinite(x).all())

    def project_rows(self, rows: np.ndarray) -> np.ndarray:
        """W @ rows[r] for every row r of an (R, d) block, as a fresh (R, V)
        block (utils.gemv_rows: one gemv per row)."""
        if self._copies(rows):
            return rows + 0.0
        return gemv_rows(self.matrix, rows)

    def backproject_rows(self, rows: np.ndarray) -> np.ndarray:
        """W.T @ rows[r] for every row r of an (R, V) block, as an (R, d) block."""
        if self._copies(rows):
            return rows + 0.0
        return gemv_rows(self.matrix.T, rows)

    def project_block(self, hs: np.ndarray) -> np.ndarray:
        """hs @ W.T for a (T, d) block: one gemm, whose rows may round
        differently from project_rows of the same block."""
        if self._copies(hs):
            return hs + 0.0
        return hs @ self.matrix.T

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.matrix.shape[1]


def logits_at(head: ProjectionHead, hidden, delta=None) -> np.ndarray:
    """Next-token logits W @ (h + delta). delta=None means no correction."""
    h = np.asarray(hidden, dtype=np.float64)
    if h.shape != (head.hidden_dim,):
        raise InputError(f"hidden state must have shape ({head.hidden_dim},), got {h.shape}")
    if delta is not None:
        d = np.asarray(delta, dtype=np.float64)
        if d.shape != h.shape:
            raise InputError(f"correction must have shape {h.shape}, got {d.shape}")
        h = h + d
    return head.project_rows(h[None])[0]


def _token_id(token) -> int:
    """A token id as a Python int. Python and numpy integers only: a float,
    bool or string is rejected rather than truncated."""
    if not isinstance(token, bool):
        try:
            return operator.index(token)
        except TypeError:
            pass
    raise InputError(f"token id must be an integer, got {token!r}")


def _fits(key: str, *shape: int) -> None:
    """ConfigError naming key when numpy would refuse a float64 array of this
    shape before allocating it: one whose byte count exceeds the largest intp."""
    if min(shape) > 0 and math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{key} is too large: numpy cannot hold a float64 array "
                          f"of shape {shape}")


# The keys of each kind's backend file, in written order, read and written by
# the utils walker. A backend's constructor takes its defaults from here.

@dataclass(frozen=True, kw_only=True)
class _ScriptedFile:
    kind: str = "scripted"
    vocab_size: int
    token_names: list[str] | None = None
    by_prefix: dict[tuple[int, ...], np.ndarray] | None = None
    by_position: np.ndarray | None = None
    fallback: np.ndarray | None = None
    head: np.ndarray | None = None  # None: the identity

    def __post_init__(self):
        if self.head is None:
            _fits("vocab_size", self.vocab_size, self.vocab_size)

    def build(self) -> "ScriptedBackend":
        rows = None if self.by_position is None else list(self.by_position)
        return ScriptedBackend(self.vocab_size, self.by_prefix, rows, self.fallback,
                               self.head, self.token_names)


@dataclass(frozen=True, kw_only=True)
class _MarkovFile:
    kind: str = "markov"
    vocab_size: int | None = None  # when given, the transition's size
    token_names: list[str] | None = None
    transition: np.ndarray
    smoothing: float = 0.0

    def __post_init__(self):
        if self.vocab_size not in (None, len(self.transition)):
            raise ConfigError(f"vocab_size {self.vocab_size} is not the transition's "
                              f"size {len(self.transition)}")

    def build(self) -> "MarkovBackend":
        return MarkovBackend(self.transition, self.smoothing, self.token_names)


@dataclass(frozen=True, kw_only=True)
class _AttentionFile:
    kind: str = "attention"
    vocab_size: int
    token_names: list[str] | None = None
    hidden_dim: int
    seed: int
    max_len: int = 512

    def __post_init__(self):
        # the largest weights each dimension sizes: w1, emb and head, pos
        _fits("hidden_dim", self.hidden_dim, 2 * self.hidden_dim)
        _fits("vocab_size", self.vocab_size, self.hidden_dim)
        _fits("max_len", self.max_len, self.hidden_dim)

    def build(self) -> "AttentionBackend":
        return AttentionBackend(self.vocab_size, self.hidden_dim, self.seed, self.max_len,
                                self.token_names)


_FILES = {f.kind: f for f in (_ScriptedFile, _MarkovFile, _AttentionFile)}


class _Lineage:
    """Append-only storage shared by a prefix and every prefix extended from it.

    Entries below len(hidden) never change once written, so a prefix that views
    the first n of them keeps seeing the same values. `cache` holds
    backend-private per-position state (the attention backend's keys and
    values); its rows at and beyond len(hidden) are scratch. `context` holds
    the optimizer's factorized context-loss rows of positions its
    corrections reached (optimizer._LineageRows). `lock` makes "is this
    prefix the last one? then write after it" one step when two threads
    extend prefixes of the same lineage, and guards `context` the same way.
    """

    __slots__ = ("tokens", "hidden", "cache", "context", "lock")

    def __init__(self, tokens: list[int], hidden: list[np.ndarray], cache=None):
        self.tokens = tokens
        self.hidden = hidden
        self.cache = cache
        self.context = None
        self.lock = threading.Lock()

    def fork(self, n: int) -> "_Lineage":
        """A private copy of the first n entries, for extending a prefix that
        already has a child without overwriting the child's entries. The
        copy starts without context rows: siblings never share them."""
        cache = self.cache.fork(n) if self.cache is not None else None
        return _Lineage(self.tokens[:n], self.hidden[:n], cache)


class PrefixActivations:
    """Cached hidden states for a token prefix.

    hidden[i] is the state after consuming tokens[:i+1]; it predicts tokens[i+1]
    (or the next token to be sampled, for i == len(tokens)-1). prompt_len marks
    where the prompt ends and generated tokens begin.

    A value never changes after construction. Backends build it as a view of the
    first len(self) entries of an append-only lineage, so extending it costs
    O(1) bookkeeping; `tokens` and `hidden` are materialized on first read.
    """

    __slots__ = ("model_id", "prompt_len", "_line", "_n", "_tokens", "_hidden")

    def __init__(self, tokens, hidden, model_id: str, prompt_len: int = -1):
        toks = [_token_id(t) for t in tokens]
        rows = list(hidden)
        if len(rows) != len(toks):
            raise InputError("need exactly one hidden state per token")
        self._set(_Lineage(toks, rows), len(toks), model_id,
                  prompt_len if prompt_len >= 0 else len(toks))

    @classmethod
    def _view(cls, line: _Lineage, n: int, model_id: str, prompt_len: int) -> "PrefixActivations":
        acts = cls.__new__(cls)
        acts._set(line, n, model_id, prompt_len)
        return acts

    def _set(self, line, n, model_id, prompt_len) -> None:
        self._line = line
        self._n = n
        self.model_id = model_id
        self.prompt_len = prompt_len
        self._tokens = None
        self._hidden = None

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (f"PrefixActivations(len={self._n}, prompt_len={self.prompt_len}, "
                f"model_id={self.model_id!r})")

    @property
    def tokens(self) -> tuple[int, ...]:
        if self._tokens is None:
            self._tokens = tuple(self._line.tokens[:self._n])
        return self._tokens

    @property
    def hidden(self) -> tuple[np.ndarray, ...]:
        if self._hidden is None:
            self._hidden = tuple(self._line.hidden[:self._n])
        return self._hidden

    @property
    def last_hidden(self) -> np.ndarray:
        return self._line.hidden[self._n - 1]

    @property
    def last_token(self) -> int:
        return self._line.tokens[self._n - 1]


class ModelBackend(abc.ABC):
    """Frozen toy model: maps token prefixes to final hidden states.

    A backend defines one per-token step; `forward_prefix` folds it over the
    prompt and `append_token` applies it once, so an extended prefix and a fresh
    forward of the same tokens agree bit for bit.
    """

    vocab: VocabSpec
    head: ProjectionHead
    model_id: str
    max_len: int | None = None  # longest prefix accepted; None means unbounded

    def _check_token(self, token) -> int:
        t = _token_id(token)
        if not 0 <= t < self.vocab.size:
            raise InputError(f"token id {t} out of range for vocab of {self.vocab.size}")
        return t

    @abc.abstractmethod
    def _step(self, line: _Lineage, token: int) -> np.ndarray:
        """Hidden state after appending `token` to the prefix held in `line`.
        Deterministic in that prefix and `token`; may write scratch rows of
        line.cache at position len(line.hidden)."""

    def _push(self, line: _Lineage, token: int) -> None:
        t = len(line.hidden)
        if self.max_len is not None and t >= self.max_len:
            raise InputError(f"prefix length {t + 1} exceeds max_len {self.max_len}")
        h = _frozen(self._step(line, token))
        line.tokens.append(token)
        line.hidden.append(h)

    def forward_prefix(self, tokens) -> PrefixActivations:
        toks = [self._check_token(t) for t in tokens]
        if not toks:
            raise InputError("prefix must contain at least one token")
        line = _Lineage([], [])
        for tok in toks:
            self._push(line, tok)
        return PrefixActivations._view(line, len(toks), self.model_id, len(toks))

    def step_logits(self, acts_list) -> np.ndarray:
        """The uncorrected next-token logits of one or more prefixes, as a
        fresh (R, V) block whose row r equals logits_at(head,
        acts_list[r].last_hidden) bit for bit. Logits that overflow come out
        as +-inf or NaN without a warning; the decode loop fails such a row."""
        hidden = [acts.last_hidden for acts in acts_list]
        with np.errstate(over="ignore", invalid="ignore"):
            # one row: hidden[0][None] is a view, not a copy
            return self.head.project_rows(hidden[0][None] if len(hidden) == 1
                                          else np.array(hidden))

    def append_token(self, acts: PrefixActivations, token) -> PrefixActivations:
        """Extend a cached prefix by one token; earlier prefixes never change.

        Only the new token is validated. A prefix that already has a child is
        copied first, so sibling extensions never overwrite each other.
        """
        tok = self._check_token(token)
        line, n = acts._line, len(acts)
        with line.lock:
            if len(line.hidden) != n:
                line = line.fork(n)
            self._push(line, tok)
        return PrefixActivations._view(line, n + 1, self.model_id, acts.prompt_len)


class ScriptedBackend(ModelBackend):
    """Lookup-table backend: hidden states come from explicit scripts.

    Resolution order for a prefix: exact match in by_prefix, then
    by_position[len(prefix)-1], then fallback. The default head is the identity,
    so scripted hidden vectors are read directly as logits (hidden_dim == vocab).
    """

    def __init__(self, vocab_size, by_prefix=None, by_position=None, fallback=None,
                 head=None, token_names=None):
        self.vocab = VocabSpec(int(vocab_size), token_names)
        self.by_prefix = {}
        for key, vec in (by_prefix or {}).items():
            self.by_prefix[tuple(_token_id(t) for t in key)] = _frozen(vec)
        self._prefix_lengths = {len(key) for key in self.by_prefix}
        self.by_position = [_frozen(v) for v in (by_position or [])]
        self.fallback = _frozen(fallback) if fallback is not None else None

        dims = {v.shape for v in self.by_prefix.values()}
        dims |= {v.shape for v in self.by_position}
        if self.fallback is not None:
            dims.add(self.fallback.shape)
        self.head = ProjectionHead(np.eye(self.vocab.size) if head is None else head)
        want = (self.head.hidden_dim,)
        for shape in dims:
            if shape != want:
                raise InputError(f"scripted hidden entries must have shape {want}, got {shape}")
        if self.head.vocab_size != self.vocab.size:
            raise InputError("head row count must equal vocab size")
        self.model_id = f"scripted-v{self.vocab.size}-d{self.head.hidden_dim}"

    def _step(self, line, token):
        i = len(line.hidden)
        if i + 1 in self._prefix_lengths:  # only then can an exact prefix match
            hit = self.by_prefix.get(tuple(line.tokens) + (token,))
            if hit is not None:
                return hit
        if i < len(self.by_position):
            return self.by_position[i]
        if self.fallback is not None:
            return self.fallback
        raise InputError(f"no scripted hidden state for prefix of length {i + 1}")


class MarkovBackend(ModelBackend):
    """First-order Markov chain. Hidden state is the one-hot of the last token
    and the head is log(P) transposed, so logits reproduce the transition row."""

    def __init__(self, transition, smoothing: float = _MarkovFile.smoothing, token_names=None):
        p = np.asarray(transition, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InputError("transition matrix must be square")
        if p.shape[0] < 2:
            raise InputError("vocabulary needs at least two tokens")
        if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-8):
            raise InputError("transition rows must be non-negative and sum to 1")
        if smoothing < 0 or smoothing * p.shape[0] >= 1:
            raise InputError("smoothing must satisfy 0 <= smoothing < 1/vocab")
        self.transition_raw = _frozen(p)
        self.smoothing = float(smoothing)
        if self.smoothing > 0:
            p = p * (1.0 - self.smoothing * p.shape[0]) + self.smoothing
        if np.any(p <= 0):
            raise InputError("zero transition probabilities need smoothing > 0")
        self.transition = _frozen(p)
        self.vocab = VocabSpec(p.shape[0], token_names)
        self.head = ProjectionHead(np.log(p).T)
        self.model_id = f"markov-v{self.vocab.size}"
        # every hidden state is a row of this read-only identity, not a copy
        self._one_hots = _frozen(np.eye(self.vocab.size))

    def _step(self, line, token):
        return self._one_hots[token]

    def step_logits(self, acts_list) -> np.ndarray:
        """Column last_token of the head for each prefix, in O(V) per row.

        Exactly the gemv of the base class for prefixes this backend built or
        extended: their last hidden state is the one-hot that _step builds,
        and the head's entries are finite, so every product in W @ h but one
        is +-0 and the sum is that one head entry, in any summation order,
        with or without FMA."""
        return self.head.matrix.T[[acts.last_token for acts in acts_list]]


class AttentionBackend(ModelBackend):
    """Single fixed self-attention layer with seeded random weights (forward only).

    Architecture, per position j of a prefix (d = hidden_dim, f = 2d):
        x_j = emb[token_j] + pos[j]
        q   = x_last @ wq ;  k_j = x_j @ wk ;  v_j = x_j @ wv
        a   = sum_j softmax_j(q . k_j / sqrt(d)) * v_j
        u   = x_last + a @ wo
        h   = u + tanh(u @ w1) @ w2
    Weights are drawn from numpy's default_rng(seed) in the fixed order
    emb, pos, wq, wk, wv, wo, w1, w2, head, each scaled by 1/sqrt(d).
    """

    def __init__(self, vocab_size, hidden_dim, seed, max_len: int = _AttentionFile.max_len,
                 token_names=None):
        self.vocab = VocabSpec(int(vocab_size), token_names)
        d = int(hidden_dim)
        if d < 1:
            raise InputError("hidden_dim must be positive")
        if max_len < 1:
            raise InputError("max_len must be positive")
        if seed < 0:
            raise InputError("seed must be a non-negative integer")
        self.seed = int(seed)
        self.max_len = int(max_len)
        rng = np.random.default_rng(self.seed)
        s = 1.0 / math.sqrt(d)
        self.emb = _frozen(rng.standard_normal((self.vocab.size, d)) * s)
        self.pos = _frozen(rng.standard_normal((self.max_len, d)) * s)
        self.wq = _frozen(rng.standard_normal((d, d)) * s)
        self.wk = _frozen(rng.standard_normal((d, d)) * s)
        self.wv = _frozen(rng.standard_normal((d, d)) * s)
        self.wo = _frozen(rng.standard_normal((d, d)) * s)
        self.w1 = _frozen(rng.standard_normal((d, 2 * d)) * s)
        self.w2 = _frozen(rng.standard_normal((2 * d, d)) * s)
        self.head = ProjectionHead(rng.standard_normal((self.vocab.size, d)) * s)
        self.model_id = f"attention-v{self.vocab.size}-d{d}-s{self.seed}"

    def _step(self, line, token):
        t = len(line.hidden)
        kv = line.cache
        if not (isinstance(kv, _KeyValueRows) and kv.owner is self):
            kv = line.cache = self._project_prefix(line.tokens)
        x = self.emb[token] + self.pos[t]
        kv.put(t, x @ self.wk, x @ self.wv)
        q = x @ self.wq
        scores = kv.keys[:t + 1] @ q / math.sqrt(self.head.hidden_dim)
        attn = softmax(scores)
        a = attn @ kv.values[:t + 1]
        u = x + a @ self.wo
        return u + np.tanh(u @ self.w1) @ self.w2

    def _project_prefix(self, tokens) -> "_KeyValueRows":
        """Keys and values for a prefix this backend did not build (a
        PrefixActivations made by hand or by another backend), row by row
        exactly as _step computes them."""
        kv = _KeyValueRows(self, self.head.hidden_dim, self.max_len)
        for j, tok in enumerate(tokens):
            x = self.emb[self._check_token(tok)] + self.pos[j]
            kv.put(j, x @ self.wk, x @ self.wv)
        return kv


class _KeyValueRows:
    """An attention backend's projected key and value rows, one per position.

    Storage grows geometrically up to `limit` rows, so a short decode on a
    backend with a large max_len allocates only what it uses.
    """

    __slots__ = ("owner", "limit", "keys", "values")
    MIN_ROWS = 16

    def __init__(self, owner, dim: int, limit: int):
        self.owner = owner
        self.limit = limit
        self.keys = np.empty((0, dim))
        self.values = np.empty((0, dim))

    def _regrow(self, n: int) -> None:
        """Move the first n rows into storage with room for row n and more."""
        rows = min(self.limit, max(self.MIN_ROWS, 2 * (n + 1)))
        keys = np.empty((rows, self.keys.shape[1]))
        values = np.empty_like(keys)
        keys[:n] = self.keys[:n]
        values[:n] = self.values[:n]
        self.keys, self.values = keys, values

    def fork(self, n: int) -> "_KeyValueRows":
        """A private copy of the first n rows."""
        out = _KeyValueRows(self.owner, self.keys.shape[1], self.limit)
        out.keys, out.values = self.keys, self.values
        out._regrow(n)
        return out

    def put(self, t: int, key: np.ndarray, value: np.ndarray) -> None:
        """Write row t, growing the storage when t is past its end."""
        if t >= len(self.keys):
            self._regrow(t)
        self.keys[t] = key
        self.values[t] = value


def build_toy_backend(kind: str, config: dict) -> ModelBackend:
    """Construct a backend from a plain definition dict (the JSON file schema),
    read by the utils walker against the kind's file keys: unknown keys are
    fatal so that typos never silently change a run, and a value of the wrong
    type is a ConfigError naming its key."""
    if not isinstance(kind, str) or kind not in _FILES:
        raise ConfigError(f"unknown backend kind: {kind!r}")
    definition = _read_fields(_FILES[kind], config, "backend")
    try:
        return definition.build()
    except MemoryError as exc:  # sizes numpy accepts but this machine cannot hold
        raise ConfigError(f"{kind} backend does not fit in memory: {exc}") from None


def backend_to_dict(backend: ModelBackend) -> dict:
    """Definition dict for a backend; null-valued optionals are omitted."""
    names = list(backend.vocab.token_names) if backend.vocab.token_names else None
    if isinstance(backend, ScriptedBackend):
        definition = _ScriptedFile(
            vocab_size=backend.vocab.size, token_names=names, by_prefix=backend.by_prefix or None,
            by_position=np.array(backend.by_position) if backend.by_position else None,
            fallback=backend.fallback,
            head=None if backend.head.is_identity else backend.head.matrix)
    elif isinstance(backend, MarkovBackend):
        definition = _MarkovFile(vocab_size=backend.vocab.size, token_names=names,
                                 transition=backend.transition_raw, smoothing=backend.smoothing)
    elif isinstance(backend, AttentionBackend):
        definition = _AttentionFile(vocab_size=backend.vocab.size, token_names=names,
                                    hidden_dim=backend.head.hidden_dim, seed=backend.seed,
                                    max_len=backend.max_len)
    else:
        raise InputError(f"cannot serialize backend type {type(backend).__name__}")
    return {k: v for k, v in _write_fields(definition).items() if v is not None}


def backend_from_dict(data: dict) -> ModelBackend:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("backend definition must be an object with a 'kind' key")
    return build_toy_backend(data["kind"], data)


def save_backend(backend: ModelBackend, path) -> None:
    with open(path, "w") as fh:
        json.dump(backend_to_dict(backend), fh, indent=1)
        fh.write("\n")


def load_backend(path) -> ModelBackend:
    return backend_from_dict(read_json(path, "backend"))
