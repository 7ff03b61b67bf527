"""Decoder models for desk-scale experiments.

Three interchangeable models drive the streaming engine, all sharing one
contract: ``new_cache()`` plus ``forward(cache, items) -> logits`` for the
last appended position. ``items`` mixes the layout's text ``Position``s,
one position each, with ``SpeechSpan``s, which stand for a run of
consecutive speech frames; ``len(item)`` is the number of positions an
item appends. Speech comes only as a span: a model raises ``ValueError``
on a speech ``Position``, before any cache changes.
``forward_tree(cache, root, items, paths)`` grows a token tree above
``root`` for beam search: it appends each text position ``items[i]`` as a
row that sees the rows below ``root``, the rows ``paths[i]`` names (its
ancestors) and itself, at position ``root + len(paths[i])``, and returns
one logits row per item. ``compact(root, rows)`` then keeps one path.
Beam search and ``masked_ce_loss`` share the one log-softmax here,
``_log_softmax``, and every greedy decode steps by ``_greedy_step``
here, which scores the chosen token as ``_log_softmax`` does, bit for bit.

* ``ToyDecoder``: a small deterministic pre-norm transformer over mixed
  speech/text positions. A span's frames enter through a two-linear-layer
  ReLU adapter as one matrix, text through an embedding table; absolute
  position embeddings keep chunked and one-shot forwards equivalent. Depth 0
  degenerates to output-projected input embeddings. One layer body serves
  every call: layer norm, one fused Q/K/V projection and FFN over all
  rows. A span or a tree step attends on its cache under a mask, a lone
  row in one lean step as 1-D vectors.
* ``TeacherOracle``: replays a built layout, emitting the layout target of
  whatever position was appended last. Round-trip tests use it to show the
  engine regenerates builder layouts exactly.
* ``BoundaryOracle``: emits ground truth except for tokens followed by
  fewer than ``window`` frames of context, which it confuses
  deterministically. It models the chunk-boundary ambiguity that the
  fallback decoding strategies exist to repair.

Both oracles share one ``forward`` and ``forward_tree`` and reply with a
window of one read-only logits vector rather than a fresh row, so callers
must never write into the logits they get. The vector and its V reply
windows are built once per vocabulary (by a ``BoundaryOracleSuite`` as it
is built) and shared by every oracle of that vocabulary. The reply table
carries each window's greedy step, its first argmax and log-softmax
shift, computed as the windows are built: ``_greedy_step`` reads it for
a window the table holds and computes the step for any other array.

Caches are append-only below their newest chunk mark. ``mark_chunk``
seals the checksum of the prefix there, a rollback or compaction below
the mark raises, and ``rewind`` proves the prefix unchanged before it
truncates to the mark. A ``KVCache`` grows its per-layer arrays on demand
rather than reserving ``max_context`` rows up front.
"""

from __future__ import annotations

import copy
import functools
import math
import struct
import zlib
from array import array
from dataclasses import astuple, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .corpus import EOS, FIRST_TEXT_ID, PAD, Utterance
from .layout import PARADIGMS, MixedSequence, Position

__all__ = [
    "ContextOverflow",
    "StepBeyondSequence",
    "RollbackPastChunkBoundary",
    "ImmutabilityViolation",
    "SpeechSpan",
    "build_attention_mask",
    "masked_ce_loss",
    "AdapterParams",
    "adapter_forward",
    "ModelConfig",
    "param_count",
    "KVCache",
    "SymbolicCache",
    "ToyDecoder",
    "TeacherOracle",
    "BoundaryOracle",
    "BoundaryOracleSuite",
    "make_boundary_oracle",
    "default_confusable_map",
]


class ContextOverflow(RuntimeError):
    """Appending would exceed the model's maximum context length."""


class StepBeyondSequence(RuntimeError):
    """A replay oracle was stepped past the end of its layout."""


class RollbackPastChunkBoundary(RuntimeError):
    """Rollback target lies below the most recent chunk boundary."""


class ImmutabilityViolation(RuntimeError):
    """Cache content below a chunk boundary changed since it was recorded."""


@dataclass(frozen=True, slots=True, eq=False)
class SpeechSpan:
    """The ``len(frames)`` consecutive speech positions ``start``,
    ``start + 1``, ...; ``frames`` is their ``[n, frame_dim]`` matrix.
    Spans compare by identity, as their frame arrays do not compare to a
    bool."""

    start: int
    frames: np.ndarray

    def __post_init__(self) -> None:
        if getattr(self.frames, "ndim", None) != 2:
            raise ValueError("a SpeechSpan's frames must be [n, frame_dim]")

    def __len__(self) -> int:
        return len(self.frames)


def _not_speech(pos: Position) -> ValueError:
    return ValueError(f"speech position {pos} must come as a SpeechSpan")


def _check_tree(root: int, length: int, items: Sequence,
                paths: Sequence[Sequence[int]]) -> None:
    """One path per item, each of cache rows from ``root`` to ``length``."""
    if len(paths) != len(items):
        raise ValueError("forward_tree needs one path per item")
    if not 0 <= root <= length or any(
            not root <= r < length for path in paths for r in path):
        raise ValueError(f"a tree path leaves the rows {root}..{length}")


# --------------------------------------------------------------------------
# attention masks and loss


def build_attention_mask(query_len: int, key_len: int) -> np.ndarray:
    """Boolean [query_len, key_len] causal mask, True = may attend; queries
    are the trailing ``query_len`` rows of the key sequence."""
    if key_len < query_len:
        raise ValueError("key_len must cover the query span")
    offset = key_len - query_len
    qi = np.arange(query_len)[:, None] + offset
    kj = np.arange(key_len)[None, :]
    return kj <= qi


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, through the reduction loops
    ndarray.max and .sum run, minus their wrappers."""
    z = logits - np.maximum.reduce(logits, -1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), -1, keepdims=True))


# id(window) -> (window, t, shift) for every reply window ``_reply_table``
# builds: the entry holds its window alive, so no other array has its id
_REPLY_STEPS: dict[int, tuple[np.ndarray, int, float]] = {}


def _argmax_shift(logits: np.ndarray) -> tuple[int, float]:
    """The first maximum logit ``t`` and ``log sum exp(logits - logits[t])``."""
    t = int(logits.argmax())
    return t, float(np.log(np.add.reduce(np.exp(logits - logits[t]))))


def _greedy_step(logits: np.ndarray, lp: float) -> tuple[int, float]:
    """One greedy step: the first maximum logit ``t`` and ``lp`` plus its
    log probability, which equals ``_log_softmax(logits)[t]`` bit for bit:
    the shifted logit at the maximum is exactly 0, so the same sum is
    reduced, and only that one entry is computed. A reply window reads its
    step off the table ``_reply_table`` filled; any other array, a copy of
    a window too, computes it."""
    step = _REPLY_STEPS.get(id(logits))
    if step is None:
        t, shift = _argmax_shift(logits)
    else:
        _, t, shift = step
    return t, lp - shift


def masked_ce_loss(logits: np.ndarray, targets: Sequence[int | None]) -> float:
    """Mean cross-entropy over positions with a target; masked ones add nothing."""
    if logits.shape[0] != len(targets):
        raise ValueError("logits/targets length mismatch")
    idx = [i for i, t in enumerate(targets) if t is not None]
    if not idx:
        return 0.0
    lp = _log_softmax(logits[idx])
    picked = lp[np.arange(len(idx)), [targets[i] for i in idx]]
    return float(-picked.mean())


# --------------------------------------------------------------------------
# adapter


@dataclass
class AdapterParams:
    w1: np.ndarray  # [hidden, frame_dim]
    b1: np.ndarray  # [hidden]
    w2: np.ndarray  # [embed_dim, hidden]
    b2: np.ndarray  # [embed_dim]


def adapter_forward(frame: np.ndarray, params: AdapterParams) -> np.ndarray:
    """Two linear layers with a ReLU between: frame vectors to embedding
    space. A frame of the wrong dimension, or with a value that is NaN or
    infinite, raises ``ValueError``."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] != params.w1.shape[1]:
        raise ValueError(
            f"frame dim {frame.shape[-1]} != adapter input {params.w1.shape[1]}"
        )
    if not np.isfinite(frame).all():
        raise ValueError("frames must be finite")
    h = np.maximum(frame @ params.w1.T + params.b1, 0.0)
    return h @ params.w2.T + params.b2


# --------------------------------------------------------------------------
# config and parameters


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 32
    embed_dim: int = 16
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int = 32
    frame_dim: int = 8
    adapter_hidden: int = 16
    max_context: int = 2048
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.vocab_size, self.embed_dim, self.num_heads,
               self.ffn_dim, self.frame_dim, self.adapter_hidden,
               self.max_context) < 1:
            raise ValueError("all dimensions must be positive")
        if self.embed_dim % self.num_heads:
            raise ValueError("embed_dim must divide evenly into heads")
        if self.num_layers < 0:
            raise ValueError("num_layers must be >= 0")


@dataclass
class LayerParams:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray


@dataclass
class ToyParams:
    embed: np.ndarray     # [vocab, d]
    pos: np.ndarray       # [max_context, d]
    adapter: AdapterParams
    layers: list[LayerParams]
    out_w: np.ndarray     # [vocab, d]
    out_b: np.ndarray     # [vocab]


def _shapes(cfg: ModelConfig) -> list[tuple[int, ...]]:
    """Every parameter block's shape in declaration order, which is also
    the draw order and the file order."""
    d, v, h, f = cfg.embed_dim, cfg.vocab_size, cfg.adapter_hidden, cfg.ffn_dim
    layer = [(d,), (d,), *[(d, d), (d,)] * 4, (d,), (d,),
             (f, d), (f,), (d, f), (d,)]
    return [(v, d), (cfg.max_context, d), (h, cfg.frame_dim), (h,), (d, h),
            (d,), *layer * cfg.num_layers, (v, d), (v,)]


def param_count(cfg: ModelConfig) -> int:
    """Exact parameter count implied by the declaration order."""
    return sum(math.prod(s) for s in _shapes(cfg))


def _params_of(cfg: ModelConfig, blocks: list[np.ndarray]) -> ToyParams:
    """Assemble blocks given in ``_shapes`` order into the dataclasses."""
    it = iter(blocks)

    def take(cls):
        return cls(*(next(it) for _ in fields(cls)))

    return ToyParams(next(it), next(it), take(AdapterParams),
                     [take(LayerParams) for _ in range(cfg.num_layers)],
                     next(it), next(it))


def _init_params(cfg: ModelConfig) -> ToyParams:
    # One sequential stream; the draw order is the serialization order.
    rng = np.random.default_rng(cfg.seed)
    return _params_of(cfg, [rng.uniform(-0.1, 0.1, size=s)
                            for s in _shapes(cfg)])


def _fused(lp: LayerParams, names: tuple[str, str, str]) -> np.ndarray:
    """The block whose thirds are ``names``, copied and rebound if need be."""
    parts = [getattr(lp, name) for name in names]
    block = parts[0].base
    thirds = np.array_split(block, 3) if isinstance(block, np.ndarray) else []
    if [p.__array_interface__ for p in parts] != [
            t.__array_interface__ for t in thirds]:
        block = np.concatenate(parts)
        for name, third in zip(names, np.split(block, 3)):
            setattr(lp, name, third)
    return block


def _param_blocks(p) -> list[np.ndarray]:
    """Every array of a parameter dataclass, in field order."""
    blocks = []
    for f in fields(p):
        value = getattr(p, f.name)
        for part in value if isinstance(value, list) else [value]:
            blocks += [part] if isinstance(part, np.ndarray) else _param_blocks(part)
    return blocks


# --------------------------------------------------------------------------
# caches

_KV_INITIAL_ROWS = 16  # rows a new KVCache reserves per layer before growing
_SPEECH = ord("s")  # a speech position's byte in ``SymbolicCache.kinds``


class _MarkedCache:
    """Chunk bookkeeping of both cache kinds: the newest chunk ``mark``
    and the checksum ``sealed`` there (None until the first mark)."""

    def __init__(self) -> None:
        self.mark = 0
        self.sealed: int | None = None

    def mark_chunk(self) -> None:
        """Seal the current length: nothing below it may change again."""
        self.mark = len(self)
        self.sealed = self.checksum()

    def _check_target(self, n: int, what: str) -> None:
        """A rollback or checksum target must lie within 0..len(self)."""
        if n > len(self):
            raise ValueError(f"{what} {n} beyond length {len(self)}")
        if n < 0:
            raise ValueError(f"{what} {n} is negative")

    def rollback(self, n: int) -> None:
        """Truncate to length n. Only the suffix above the most recent chunk
        boundary is mutable; anything below is immutable history."""
        self._check_target(n, "rollback target")
        if n < self.mark:
            raise RollbackPastChunkBoundary(
                f"target {n} below chunk boundary {self.mark}")
        self._truncate(n)

    def rewind(self) -> int:
        """Verify the seal and truncate to the mark; returns the number of
        positions removed. A changed prefix below the mark raises
        ``ImmutabilityViolation``; an unsealed cache rewinds to empty."""
        if self.sealed is not None and self.checksum(self.mark) != self.sealed:
            raise ImmutabilityViolation(
                f"cache prefix below mark {self.mark} changed since it was sealed")
        removed = len(self) - self.mark
        self.rollback(self.mark)
        return removed

    def compact(self, root: int, rows: Sequence[int]) -> None:
        """Roll back to ``root`` but keep ``rows``, indices at or above it,
        moved down in order to ``root``, ``root + 1``, ...: how a beam turn
        keeps its winner's path of a token tree and cuts the rest. Rows
        below the mark or past the end raise ``ValueError``, and a ``root``
        below the mark raises as a rollback there does."""
        end = root + len(rows)
        if end > len(self) or any(
                not self.mark <= root <= r < len(self) for r in rows):
            raise ValueError(f"rows {list(rows)} outside {root}..{len(self)}")
        if list(rows) != list(range(root, end)):
            self._move(root, rows)
        self.rollback(end)

    def __deepcopy__(self, memo: dict) -> "_MarkedCache":
        return self.branch()


class KVCache(_MarkedCache):
    """Per-layer key/value history for the toy transformer.

    Rows are written once when a position is first forwarded and never
    rewritten; ``checksum`` hashes the live prefix so tests can prove it.
    ``append`` alone writes rows: it grows the arrays when they are full
    and returns the rows attention reads. Each layer's array in ``k`` and
    ``v`` holds at least ``length`` rows (rows past ``length`` hold no
    data): it starts small and doubles on demand up to ``max_context``, so
    a cache costs memory in proportion to what it holds. ``branch`` is a
    plain copy with room for one more row.
    """

    def __init__(self, num_layers: int, embed_dim: int, max_context: int) -> None:
        super().__init__()
        self.max_context = max_context
        self.length = 0
        rows = min(_KV_INITIAL_ROWS, max_context)
        self.k = [np.empty((rows, embed_dim)) for _ in range(num_layers)]
        self.v = [np.empty((rows, embed_dim)) for _ in range(num_layers)]

    def __len__(self) -> int:
        return self.length

    def append(self, layer: int, k: np.ndarray,
               v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write ``k`` and ``v`` at ``length`` in layer ``layer``, one row
        as 1-D vectors or a span as ``[s, d]``, and return the layer's key
        and value rows through the new ones; ``advance`` then counts them.
        Past ``max_context`` it raises ``ContextOverflow`` and changes
        nothing."""
        start = self.length
        end = start + 1 if k.ndim == 1 else start + k.shape[0]
        keys, values = self.k[layer], self.v[layer]
        if end > keys.shape[0]:
            if end > self.max_context:
                raise ContextOverflow(f"{end} > max_context {self.max_context}")
            cap = _KV_INITIAL_ROWS
            while cap < end:
                cap *= 2
            cap = min(cap, self.max_context)
            keys = self.k[layer] = _grown(keys, cap, start)
            values = self.v[layer] = _grown(values, cap, start)
        if k.ndim == 1:  # an index writes a lone row for less than a slice
            keys[start], values[start] = k, v
        else:
            keys[start:end], values[start:end] = k, v
        return keys[:end], values[:end]

    def advance(self, n: int) -> None:
        if self.length + n > self.max_context:
            raise ContextOverflow(
                f"{self.length + n} > max_context {self.max_context}"
            )
        self.length += n

    def _truncate(self, n: int) -> None:
        self.length = n

    def _move(self, root: int, rows: Sequence[int]) -> None:
        end, rows = root + len(rows), list(rows)
        for keys, values in zip(self.k, self.v):
            keys[root:end], values[root:end] = keys[rows], values[rows]

    def branch(self) -> "KVCache":
        """A cache with this one's rows, mark and seal in arrays of its
        own, with room for one more row rounded up to 16: a doubled
        reserve costs more to allocate than it saves."""
        other = copy.copy(self)
        cap = min(-(-(self.length + 1) // 16) * 16, self.max_context)
        other.k = [_grown(a, cap, self.length) for a in self.k]
        other.v = [_grown(a, cap, self.length) for a in self.v]
        return other

    def checksum(self, upto: int | None = None) -> int:
        n = self.length if upto is None else upto
        self._check_target(n, "checksum upto")
        # the live prefix of a C-contiguous row block is read in place
        c = 0
        for keys, values in zip(self.k, self.v):
            c = zlib.crc32(values[:n], zlib.crc32(keys[:n], c))
        return c


def _grown(rows: np.ndarray, cap: int, n: int) -> np.ndarray:
    """A copy of the first ``n`` rows in an array of ``cap`` rows."""
    out = np.empty((cap, rows.shape[1]))
    out[:n] = rows[:n]
    return out


class SymbolicCache(_MarkedCache):
    """Position history for replay oracles: no tensors, just identities.

    Two typed logs, ``kinds`` (a ``bytearray`` of ``b"s"``/``b"t"``) and
    ``values`` (an ``array("q")``), hashed in place by ``checksum`` and
    copied and cut in C; a ``SpeechSpan`` lands in both in C too, and a
    lone text ``Position``, a decode step's whole call, without the item
    loop. ``checksum()`` of the whole log, the one ``mark_chunk`` seals,
    hashes both logs without slicing them. An oracle reads the running
    ``real_count`` (real text tokens) and ``max_frame`` (highest speech
    frame, -1 before any); ``mark_chunk`` saves both, so a rollback
    recounts them from the mark.
    """

    def __init__(self) -> None:
        super().__init__()
        self.kinds = bytearray()
        self.values = array("q")
        self.real_count = 0
        self.max_frame = -1
        self._at_mark = (0, -1)  # (real_count, max_frame) at the mark

    def __len__(self) -> int:
        return len(self.values)

    def append_items(self, items: Sequence[Position | SpeechSpan]) -> None:
        if len(items) == 1 and type(items[0]) is Position:
            # a lone text row, every decode step's call, skips the loop
            pos = items[0]
            if pos.kind != "t":
                raise _not_speech(pos)
            self.kinds += b"t"
            self.values.append(pos.value)
            if pos.value >= FIRST_TEXT_ID:
                self.real_count += 1
            return
        kinds, values = self.kinds, self.values
        real, edge = self.real_count, self.max_frame
        base = len(values)
        for it in items:
            if isinstance(it, SpeechSpan):
                start, n = it.start, len(it.frames)
                if n:
                    kinds += b"s" * n
                    values.extend(range(start, start + n))
                    edge = max(edge, start + n - 1)
                continue
            value = it.value
            if it.kind != "t":
                del kinds[base:], values[base:]
                raise _not_speech(it)
            kinds += b"t"
            values.append(value)
            if value >= FIRST_TEXT_ID:
                real += 1
        self.real_count, self.max_frame = real, edge

    def mark_chunk(self) -> None:
        super().mark_chunk()
        self._at_mark = (self.real_count, self.max_frame)

    def _truncate(self, n: int) -> None:
        del self.kinds[n:], self.values[n:]
        # from the values saved at the mark, recount what lies past it:
        # nothing after a rewind, which cuts to the mark
        real, edge = self._at_mark
        if n > self.mark:
            for kind, value in zip(self.kinds[self.mark:], self.values[self.mark:]):
                if kind == _SPEECH:
                    edge = max(edge, value)
                elif value >= FIRST_TEXT_ID:
                    real += 1
        self.real_count, self.max_frame = real, edge

    def _move(self, root: int, rows: Sequence[int]) -> None:
        end = root + len(rows)
        self.kinds[root:end] = bytes(self.kinds[r] for r in rows)
        self.values[root:end] = array("q", [self.values[r] for r in rows])

    def branch(self) -> "SymbolicCache":
        other = SymbolicCache()
        other.kinds = self.kinds[:]
        other.values = self.values[:]
        other.real_count, other.max_frame = self.real_count, self.max_frame
        other.mark, other.sealed, other._at_mark = (
            self.mark, self.sealed, self._at_mark)
        return other

    def checksum(self, upto: int | None = None) -> int:
        # the UTF-8 of the joined kinds, then the fixed-width values: the
        # hashed bytes determine the prefix; re-hashed on every call, and
        # the whole log, which every mark_chunk seals, in place
        if upto is None:
            return zlib.crc32(self.values, zlib.crc32(self.kinds))
        self._check_target(upto, "checksum upto")
        kinds = zlib.crc32(memoryview(self.kinds)[:upto])
        return zlib.crc32(memoryview(self.values)[:upto], kinds)


# --------------------------------------------------------------------------
# toy transformer


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    # One pass over the centred rows; sum / n is what ndarray.mean and
    # .var compute, so this is bit-identical to mean-then-variance. A 1-D
    # row takes its mean and variance as Python floats: the same IEEE
    # division and square root without numpy's scalar overhead.
    n = x.shape[-1]
    if x.ndim == 1:
        d = x - float(np.add.reduce(x)) / n
        return d / math.sqrt(float(np.add.reduce(d * d)) / n + 1e-5) * g + b
    d = x - np.add.reduce(x, -1, keepdims=True) / n
    return d / np.sqrt(np.add.reduce(d * d, -1, keepdims=True) / n + 1e-5) * g + b


class ToyDecoder:
    """Deterministic pre-norm transformer decoder over mixed positions.

    depth 0 reduces to logits = out_w @ (embedding + position), which makes
    the wiring analytically checkable. No final layer norm for the same
    reason. float64 throughout; chunked decoding with the KV cache matches
    a one-shot forward to float reassociation error.

    The layer body reads its weights through views of ``params`` taken at
    construction, so in-place edits to a block are seen; rebinding
    ``params`` or one of its blocks afterwards is not supported.
    Projections go through ``ndarray.dot``, the same BLAS call as ``@``.
    Construction fuses each layer's ``wq, wk, wv`` into the thirds of one
    ``[3d, d]`` block and ``bq, bk, bv`` of one ``[3d]`` block, so one
    projection gives Q, K and V; a caller's arrays are copied once and
    rebound to those views unless they already are them.
    """

    def __init__(self, cfg: ModelConfig, params: ToyParams | None = None) -> None:
        self.cfg = cfg
        self.params = params if params is not None else _init_params(cfg)
        self.vocab_size = cfg.vocab_size
        # Each layer's blocks in field order, which is the body's call
        # order, with Q/K/V fused; each projection as its transposed view (a
        # 1-D block's .T is itself): views, not copies, so edits are seen.
        self._weights = [tuple(b.T for b in [
            lp.ln1_g, lp.ln1_b, _fused(lp, ("wq", "wk", "wv")),
            _fused(lp, ("bq", "bk", "bv")), *_param_blocks(lp)[8:]])
            for lp in self.params.layers]
        self._out = (self.params.out_w.T, self.params.out_b)
        dh = cfg.embed_dim // cfg.num_heads
        self._heads = (cfg.embed_dim, cfg.num_heads, dh, math.sqrt(dh))

    def new_cache(self) -> KVCache:
        return KVCache(self.cfg.num_layers, self.cfg.embed_dim, self.cfg.max_context)

    # -- embedding

    def embed_items(self, items: Sequence[Position | SpeechSpan],
                    start: int) -> np.ndarray:
        return self._embed(items, slice(start, start + sum(map(len, items))))

    def _embed(self, items: Sequence[Position | SpeechSpan],
               positions: slice | Sequence[int]) -> np.ndarray:
        """Input rows: each text item's token embedding and each span's
        frames through the adapter as one matrix, plus the embedding of each
        row's absolute position. ``positions`` is a slice over every row, or
        one index per item for text items alone. Every check runs before
        any row reaches a cache."""
        if isinstance(positions, slice):
            n, top = positions.stop - positions.start, positions.stop
        else:
            n, top = len(items), int(max(positions, default=-1)) + 1
        if n and top > self.cfg.max_context:
            raise ContextOverflow(f"{top} > max_context {self.cfg.max_context}")
        rows = np.empty((n, self.cfg.embed_dim))
        r = 0
        for it in items:
            if isinstance(it, SpeechSpan):
                if not isinstance(positions, slice):
                    raise ValueError("a SpeechSpan needs a span of positions")
                end = r + len(it.frames)
                rows[r:end] = adapter_forward(it.frames, self.params.adapter)
                r = end
                continue
            kind, value = it.kind, it.value
            if kind != "t":
                raise _not_speech(it)
            if not (0 <= value < self.cfg.vocab_size):
                raise ValueError(f"token id {value} out of vocabulary")
            rows[r] = self.params.embed[value]
            r += 1
        rows += self.params.pos[positions]
        return rows

    # -- core forward

    def _layers(self, x: np.ndarray, cache: KVCache,
                hidden: np.ndarray | None = None) -> np.ndarray:
        """Append the rows of ``x`` to ``cache`` through every layer and
        return their logits.

        Layer norm, projections and FFN run over all rows at once,
        attention over the rows ``append`` returns, except those ``hidden``
        marks (True = hidden, one row of the mask per row of ``x``). Without
        a mask the rows attend causally, and a lone row, its cache's newest,
        sees every key, so it takes ``_step`` as a 1-D vector: the same
        arithmetic bit for bit, with less numpy overhead.
        """
        n = x.shape[0]
        if hidden is None and n == 1:
            x = x[0]
        elif hidden is None:  # every layer sees the same keys
            hidden = ~build_attention_mask(n, len(cache) + n)
        for li, (g1, b1, wqkv, bqkv, wo, bo,
                 g2, b2, w1, fb1, w2, fb2) in enumerate(self._weights):
            qkv = _layer_norm(x, g1, b1).dot(wqkv)
            qkv += bqkv
            ctx = (self._step(cache, li, qkv) if hidden is None
                   else self._attend(cache, li, qkv, hidden))
            x = x + ctx.dot(wo) + bo
            f = _layer_norm(x, g2, b2).dot(w1)
            f += fb1
            x = x + np.maximum(f, 0.0, out=f).dot(w2) + fb2
        cache.advance(n)
        out_w, out_b = self._out
        return (x.dot(out_w) + out_b).reshape(n, -1)

    def _step(self, cache: KVCache, li: int, qkv: np.ndarray) -> np.ndarray:
        """Append one row's key and value to layer ``li`` of its cache and
        attend from its query over every key ``append`` returns. ``qkv`` is
        the row's 1-D projection, and the context comes back 1-D."""
        d, h_count, dh, _ = self._heads
        keys, values = cache.append(li, qkv[d:2 * d], qkv[2 * d:])
        n = keys.shape[0]
        scores = qkv[:d].reshape(h_count, 1, dh) @ \
            keys.reshape(n, h_count, dh).transpose(1, 2, 0)
        vh = values.reshape(n, h_count, dh).transpose(1, 0, 2)
        return (self._softmax(scores) @ vh).reshape(d)

    def _attend(self, cache: KVCache, li: int, qkv: np.ndarray,
                hidden: np.ndarray) -> np.ndarray:
        """Append a span's keys and values to layer ``li`` of its cache and
        attend from its queries over every key ``append`` returns, except
        those ``hidden`` marks. ``qkv`` is the span's ``[s, 3d]`` projection."""
        d, h_count, dh, _ = self._heads
        s = qkv.shape[0]
        keys, values = cache.append(li, qkv[:, d:2 * d], qkv[:, 2 * d:])
        n = keys.shape[0]
        kt = keys.reshape(n, h_count, dh).transpose(1, 2, 0)
        vh = values.reshape(n, h_count, dh).transpose(1, 0, 2)
        scores = qkv[:, :d].reshape(s, h_count, dh).transpose(1, 0, 2) @ kt
        np.copyto(scores, -np.inf, where=hidden)
        return (self._softmax(scores) @ vh).transpose(1, 0, 2).reshape(s, d)

    def _softmax(self, scores: np.ndarray) -> np.ndarray:
        # scale and softmax over the last axis in place, through the loops
        # ndarray.max and .sum run: each row reduces alone, so a stack of
        # rows reads as each row would
        scores /= self._heads[3]
        scores -= np.maximum.reduce(scores, -1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, -1, keepdims=True)
        return scores

    def forward_embedded(self, x: np.ndarray, cache: KVCache) -> np.ndarray:
        """Append the embedded span to the cache, return logits for each row."""
        return self._layers(x, cache)

    def forward(self, cache: KVCache,
                items: Sequence[Position | SpeechSpan]) -> np.ndarray:
        """Engine entry point: append items, return last-position logits."""
        x = self.embed_items(items, start=len(cache))
        logits = self.forward_embedded(x, cache)
        return logits[-1]

    def forward_tree(self, cache: KVCache, root: int,
                     items: Sequence[Position],
                     paths: Sequence[Sequence[int]]) -> np.ndarray:
        """Append the text positions ``items`` as tree rows above ``root``
        (see the module docstring) and return one row of logits per item,
        each as the last row of a linear cache holding its path would read,
        to float rounding. Even a lone row takes the mask, as the cache may
        hold rows it must not see. A tree whose rows would take the cache
        past ``max_context`` raises ``ContextOverflow``, as every path that
        would does, and leaves the cache as it was."""
        n, s = len(cache), len(items)
        _check_tree(root, n, items, paths)
        if not items:
            return np.empty((0, self.vocab_size))
        x = self._embed(items, [root + len(p) for p in paths])
        hidden = np.ones((s, n + s), dtype=bool)
        hidden[:, :root] = False
        for i, path in enumerate(paths):
            hidden[i, list(path)] = False
            hidden[i, n + i] = False
        return self._layers(x, cache, hidden)

    def forward_sequence(
            self, items: Sequence[Position | SpeechSpan]) -> np.ndarray:
        """One-shot forward over a whole sequence with a fresh cache."""
        cache = self.new_cache()
        x = self.embed_items(items, start=0)
        return self.forward_embedded(x, cache)

    # -- serialization

    _MAGIC = b"SADC"
    _VERSION = 1
    _HEADER = "<4sH9q"

    def save(self, path: str) -> None:
        """Flat binary: a header with the config's fields in declaration
        order, then float64 parameter blocks in declaration order. Reload
        is byte-exact."""
        with open(path, "wb") as fh:
            fh.write(struct.pack(self._HEADER, self._MAGIC, self._VERSION,
                                 *astuple(self.cfg)))
            for block in _param_blocks(self.params):
                fh.write(np.ascontiguousarray(block, dtype=np.float64).tobytes())

    @classmethod
    def load(cls, path: str) -> "ToyDecoder":
        with open(path, "rb") as fh:
            raw = fh.read()
        offset = struct.calcsize(cls._HEADER)
        if len(raw) < offset:
            raise ValueError("not a toy decoder parameter file")
        magic, version, *dims = struct.unpack_from(cls._HEADER, raw)
        if magic != cls._MAGIC or version != cls._VERSION:
            raise ValueError("not a toy decoder parameter file")
        cfg = ModelConfig(*dims)
        if len(raw) != offset + 8 * param_count(cfg):
            raise ValueError("parameter file size mismatch")
        # one aligned, writable copy per block, as a fresh draw has
        shapes = _shapes(cfg)
        cuts = np.cumsum([math.prod(s) for s in shapes])[:-1]
        flat = np.frombuffer(raw, np.float64, offset=offset)
        return cls(cfg, _params_of(cfg, [b.reshape(s).copy() for b, s in
                                         zip(np.split(flat, cuts), shapes)]))


# --------------------------------------------------------------------------
# replay oracles


_ORACLE_LOW = -30.0  # non-target logit; softmax mass on the target is ~1


def _one_hot_rows(vocab_size: int) -> np.ndarray:
    """A read-only vector of 2V-1 logits, 0 at V-1: the V-wide window at
    ``V-1-t`` is token t's reply, shared by every call that emits t."""
    rows = np.full(2 * vocab_size - 1, _ORACLE_LOW)
    rows[vocab_size - 1] = 0.0
    rows.flags.writeable = False
    return rows


def _one_hot_logits(rows: np.ndarray, token_id: int) -> np.ndarray:
    v = (rows.shape[0] + 1) // 2
    if not 0 <= token_id < v:
        raise IndexError(f"token id {token_id} outside a vocabulary of {v}")
    return rows[v - 1 - token_id : 2 * v - 1 - token_id]


@functools.cache
def _reply_table(vocab_size: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The ``_one_hot_rows`` vector of a vocabulary and its reply windows,
    token t's at index t: built once per vocabulary, shared by every
    replay oracle of it. Each window's greedy step goes into
    ``_REPLY_STEPS`` as it is built."""
    rows = _one_hot_rows(vocab_size)
    windows = tuple(_one_hot_logits(rows, t) for t in range(vocab_size))
    for w in windows:
        _REPLY_STEPS[id(w)] = (w, *_argmax_shift(w))
    return rows, windows


@dataclass(slots=True)
class _PathView:
    """What a replay oracle reads off its cache, for one tree row: the
    length, real-token count and speech edge of a cache holding its path."""

    length: int
    real_count: int
    max_frame: int

    def __len__(self) -> int:
        return self.length


class _ReplayOracle:
    """The replay oracles' shared contract: a symbolic cache, and after the
    items land, the one-hot logits of the token ``_reply`` reads off it."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self._rows, self._windows = _reply_table(vocab_size)

    def new_cache(self) -> SymbolicCache:
        return SymbolicCache()

    def _window(self, t: int) -> np.ndarray:
        if not 0 <= t < self.vocab_size:  # a negative id must not wrap
            raise IndexError(
                f"token id {t} outside a vocabulary of {self.vocab_size}")
        return self._windows[t]

    def forward(self, cache: SymbolicCache,
                items: Sequence[Position | SpeechSpan]) -> np.ndarray:
        cache.append_items(items)
        return self._window(self._reply(cache))

    def forward_tree(self, cache: SymbolicCache, root: int,
                     items: Sequence[Position],
                     paths: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """``ToyDecoder.forward_tree``'s contract: each row replies as the
        last row of a cache holding the rows below ``root``, its path and
        itself. Every row from ``root`` up must be text, as tree rows are,
        so the speech edge is the cache's and the real-token count at
        ``root`` is the cache's less the real tokens above it."""
        kinds, values = cache.kinds, cache.values
        _check_tree(root, len(values), items, paths)
        if any(type(it) is not Position or it.kind != "t" for it in items):
            raise ValueError("a tree row is one text Position")
        if _SPEECH in kinds[root:]:
            raise ValueError("a tree grows over text rows alone")
        real = cache.real_count - sum(
            v >= FIRST_TEXT_ID for v in values[root:])
        cache.append_items(items)
        return [self._window(self._reply(_PathView(
            root + len(path) + 1,
            real + sum(values[r] >= FIRST_TEXT_ID for r in path)
            + (it.value >= FIRST_TEXT_ID), cache.max_frame)))
            for it, path in zip(items, paths)]


class TeacherOracle(_ReplayOracle):
    """Emits the layout target for the last appended position.

    Position-indexed: the engine may append values that differ from the
    layout (a fallback decode appends the provisional token itself where
    the layout shows pad) and the reply is still the layout's target for
    that slot. Stepping past the layout raises.
    """

    def __init__(self, seq: MixedSequence, *, vocab_size: int = 32):
        super().__init__(vocab_size)
        self.seq = seq

    def _reply(self, cache: SymbolicCache) -> int:
        idx = len(cache) - 1
        if idx >= len(self.seq.targets):
            raise StepBeyondSequence(f"position {idx} past layout end")
        t = self.seq.targets[idx]
        return t if t is not None else PAD


def default_confusable_map(vocab_size: int) -> Callable[[int], int]:
    """Cyclic next-token map over the text vocabulary; never maps to self."""
    span = vocab_size - FIRST_TEXT_ID

    def confuse(t: int) -> int:
        return FIRST_TEXT_ID + ((t - FIRST_TEXT_ID + 1) % span)

    return confuse


class BoundaryOracle(_ReplayOracle):
    """Deterministic stand-in for a trained model with boundary ambiguity.

    State lives entirely in the symbolic cache: the count of real text
    tokens identifies the next occurrence to emit, the max speech frame
    identifies the context edge. A token whose last frame lies within
    ``window`` frames of the edge (fewer than ``window`` frames of speech
    after it in context) comes out wrong, as ``default_confusable_map``
    maps it; re-decoded with enough later audio it comes out right. Window
    1 confuses the token ending on the edge, window 0 is an exact model.
    The stream's end is an edge too, so a final token ending within the
    window of it stays wrong. Stop symbols follow the bound paradigm: pad
    for turn-stops, eos only where the non-streaming and standard streaming
    layouts end an utterance.
    """

    def __init__(self, utt: Utterance, paradigm: str, vocab_size: int,
                 confusion_window: int):
        if paradigm not in PARADIGMS:
            raise ValueError(f"unknown paradigm {paradigm!r}")
        super().__init__(vocab_size)
        self.utt = utt
        self.paradigm = paradigm
        self.window = confusion_window
        self._confuse = default_confusable_map(vocab_size)
        # the stop while the next token is not yet audible, and once the
        # utterance is done
        self._wait_stop = EOS if paradigm == "ns" else PAD
        self._done_stop = PAD if paradigm == "cs" else EOS

    def _reply(self, cache: SymbolicCache) -> int:
        o = cache.real_count
        if o >= len(self.utt.tokens):
            return self._done_stop
        end = self.utt.alignments[o].end_frame
        edge = cache.max_frame
        if end > edge:  # not yet audible: wait for more speech
            return self._wait_stop
        tok = self.utt.tokens[o]
        # end <= edge here: confused while fewer than ``window`` frames of
        # speech follow the token, the stream's end no exception
        confused = end > edge - self.window
        return self._confuse(tok) if confused else tok


class BoundaryOracleSuite:
    """Per-utterance factory for boundary oracles over one corpus. A
    negative confusion window raises ``ValueError``."""

    def __init__(self, utts: Sequence[Utterance], confusion_window: int,
                 sp=None, vocab_size: int = 32):
        if confusion_window < 0:
            raise ValueError(
                f"boundary confusion window must be >= 0, not {confusion_window}")
        self.by_id = {u.id: u for u in utts}
        self.window = confusion_window
        self.vocab_size = vocab_size
        _reply_table(vocab_size)  # every bind shares the table built here

    def bind(self, utt: Utterance | str, paradigm: str) -> BoundaryOracle:
        u = self.by_id[utt] if isinstance(utt, str) else utt
        return BoundaryOracle(u, paradigm, self.vocab_size, self.window)


make_boundary_oracle = BoundaryOracleSuite
