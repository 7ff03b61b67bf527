"""Toy transformer, caches, masks, loss, and the two decoding oracles."""

import copy
import dataclasses
import hashlib
import tracemalloc
import zlib
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamasr.layout import ChunkingConfig, build_ns, build_ss, speech, text
from streamasr.model import (
    AdapterParams,
    BoundaryOracle,
    ContextOverflow,
    ImmutabilityViolation,
    KVCache,
    LayerParams,
    ModelConfig,
    RollbackPastChunkBoundary,
    SpeechSpan,
    SymbolicCache,
    TeacherOracle,
    ToyDecoder,
    _layer_norm,
    _log_softmax,
    _one_hot_logits,
    _one_hot_rows,
    adapter_forward,
    build_attention_mask,
    default_confusable_map,
    make_boundary_oracle,
    masked_ce_loss,
    param_count,
)

CFG = ModelConfig(vocab_size=16, embed_dim=8, num_layers=2, num_heads=2,
                  ffn_dim=16, frame_dim=4, adapter_hidden=8, max_context=256,
                  seed=0)


def _items(model, n_frames, tokens):
    rng = np.random.default_rng(7)
    out = [
        SpeechSpan(i, rng.standard_normal((1, model.cfg.frame_dim)))
        for i in range(n_frames)
    ]
    out += [text(t) for t in tokens]
    return out


def _speech(start, n=1):
    """``n`` speech positions from frame ``start``, as the symbolic cache
    sees them: it reads no frame values."""
    return SpeechSpan(start, np.zeros((n, 1)))


def _positions(items):
    """One ``Position`` per position the items stand for."""
    return [p for it in items for p in (
        [speech(it.start + i) for i in range(len(it))]
        if isinstance(it, SpeechSpan) else [it])]


# -----------------------------
# attention mask
# -----------------------------

def test_full_mask_is_causal():
    m = build_attention_mask(4, 4)
    assert np.array_equal(m, np.tril(np.ones((4, 4), dtype=bool)))


def test_full_mask_offsets_trailing_queries():
    m = build_attention_mask(2, 5)
    assert m.shape == (2, 5)
    assert m[0].tolist() == [True, True, True, True, False]
    assert m[1].tolist() == [True] * 5


def test_mask_errors():
    with pytest.raises(ValueError):
        build_attention_mask(5, 4)


# -----------------------------
# loss
# -----------------------------

def test_masked_ce_ignores_none_targets():
    logits = np.zeros((3, 4))
    # uniform logits: every supervised position costs log(4)
    assert masked_ce_loss(logits, [None, 2, None]) == pytest.approx(np.log(4))
    assert masked_ce_loss(logits, [None, None, None]) == 0.0


def test_masked_ce_picks_target_prob():
    logits = np.array([[10.0, 0.0, 0.0]])
    assert masked_ce_loss(logits, [0]) < 1e-4
    assert masked_ce_loss(logits, [1]) > 5.0


def test_masked_ce_length_mismatch():
    with pytest.raises(ValueError):
        masked_ce_loss(np.zeros((2, 4)), [1])


def _wrapped_log_softmax(logits):
    """The former ``ndarray.max``/``.sum`` form, on any number of axes."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def test_log_softmax_matches_the_wrapped_reductions():
    """``_log_softmax`` through the bare ufunc reductions equals the
    wrapped form bit for bit: on the 1-D rows beam search scores, also
    against the scalar-shift form beam search used before, and on the 2-D
    blocks ``masked_ce_loss`` scores."""
    rng = np.random.default_rng(0)
    for _ in range(20_000):
        row = rng.standard_normal(int(rng.integers(2, 65))) \
            * rng.uniform(0.01, 50.0)
        z = row - row.max()
        assert np.array_equal(_log_softmax(row),
                              z - np.log(np.exp(z).sum()))
        assert np.array_equal(_log_softmax(row), _wrapped_log_softmax(row))
    for _ in range(2_000):
        shape = (int(rng.integers(1, 9)), int(rng.integers(2, 65)))
        block = rng.standard_normal(shape) * rng.uniform(0.01, 50.0)
        assert np.array_equal(_log_softmax(block),
                              _wrapped_log_softmax(block))


# -----------------------------
# adapter and parameter count
# -----------------------------

def test_adapter_maps_frame_to_embed_dim():
    rng = np.random.default_rng(0)
    p = AdapterParams(
        w1=rng.standard_normal((8, 4)), b1=np.zeros(8),
        w2=rng.standard_normal((6, 8)), b2=np.zeros(6),
    )
    out = adapter_forward(rng.standard_normal(4), p)
    assert out.shape == (6,)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adapter_rejects_a_non_finite_frame(bad):
    """A NaN or infinite frame value raises where the toy first reads frame
    values; past the adapter it would turn every logit NaN."""
    rng = np.random.default_rng(0)
    p = AdapterParams(
        w1=rng.standard_normal((8, 4)), b1=np.zeros(8),
        w2=rng.standard_normal((6, 8)), b2=np.zeros(6),
    )
    frames = rng.standard_normal((3, 4))
    frames[1, 2] = bad
    with pytest.raises(ValueError, match="frames must be finite"):
        adapter_forward(frames, p)
    m = ToyDecoder(CFG)
    cache = m.new_cache()
    with pytest.raises(ValueError, match="frames must be finite"):
        m.forward(cache, [text(4), SpeechSpan(0, frames)])
    assert len(cache) == 0


def test_param_count_matches_parameters():
    from streamasr.model import _param_blocks

    model = ToyDecoder(CFG)
    assert param_count(CFG) == sum(b.size for b in _param_blocks(model.params))
    deeper = ModelConfig(vocab_size=20, embed_dim=12, num_layers=3, num_heads=3,
                         ffn_dim=24, frame_dim=5, adapter_hidden=7,
                         max_context=50, seed=2)
    assert param_count(deeper) == sum(
        b.size for b in _param_blocks(ToyDecoder(deeper).params))


# -----------------------------
# toy decoder
# -----------------------------

@pytest.mark.parametrize("obj, field", [
    (speech(3), "value"),
    (SpeechSpan(3, np.zeros((1, 4))), "frames"),
])
def test_positions_and_items_are_slotted_and_frozen(obj, field):
    """One ``Position`` exists per laid-out position, and a model takes
    the text ones as they are, so they and ``SpeechSpan`` carry no
    per-instance dict, and they stay immutable."""
    assert not hasattr(obj, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, None)


def test_model_deterministic():
    a = ToyDecoder(CFG)
    b = ToyDecoder(CFG)
    items = _items(a, 3, [5, 6])
    la = a.forward_sequence(items)
    lb = b.forward_sequence(items)
    assert np.array_equal(la, lb)
    assert np.isfinite(la).all()


def test_depth_zero_is_analytic():
    cfg = ModelConfig(vocab_size=16, embed_dim=8, num_layers=0, num_heads=2,
                      ffn_dim=16, frame_dim=4, adapter_hidden=8,
                      max_context=64, seed=1)
    m = ToyDecoder(cfg)
    items = _items(m, 0, [5, 6, 7])
    logits = m.forward_sequence(items)
    x = m.embed_items(items, start=0)
    assert np.allclose(logits, x @ m.params.out_w.T + m.params.out_b,
                       atol=1e-12)


def test_chunked_forward_matches_one_shot():
    m = ToyDecoder(CFG)
    items = _items(m, 6, [4, 5, 6, 7])
    full = m.forward_sequence(items)
    cache = m.new_cache()
    got = []
    for lo in range(0, len(items), 3):
        chunk = items[lo:lo + 3]
        x = m.embed_items(chunk, start=len(cache))
        got.append(m.forward_embedded(x, cache))
    err = np.abs(np.concatenate(got) - full).max()
    assert err < 1e-12


def test_forward_rejects_out_of_vocab():
    m = ToyDecoder(CFG)
    with pytest.raises(ValueError):
        m.forward(m.new_cache(), [text(CFG.vocab_size)])


def test_save_load_round_trip(tmp_path):
    m = ToyDecoder(CFG)
    path = tmp_path / "m.npz"
    m.save(str(path))
    back = ToyDecoder.load(str(path))
    assert back.cfg == m.cfg
    items = _items(m, 2, [3, 4])
    assert np.array_equal(m.forward_sequence(items), back.forward_sequence(items))


# sha256 of the bytes ``save`` wrote before one shape table replaced the
# hand-written draws: the draw order, the block order and the header are
# part of the file format and must not move
@pytest.mark.parametrize("cfg, digest", [
    (ModelConfig(seed=3),
     "c7489cbaf93685bab396713644800d6d849bfe8b9102be8e247fa3d1289bb5b7"),
    # the benchmark's toy decoder (``TOY`` in perfbench/bench.py)
    (ModelConfig(vocab_size=32, embed_dim=64, num_layers=4, num_heads=4,
                 ffn_dim=128, max_context=2048, seed=0),
     "9c4cd951676d046588d76787123734eaa722920c708f04f1bf5b774793f5dab7"),
], ids=["seed3", "bench-toy"])
def test_saved_bytes_are_pinned(tmp_path, cfg, digest):
    path = tmp_path / "m.bin"
    ToyDecoder(cfg).save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    back = ToyDecoder.load(str(path))
    assert back.cfg == cfg
    back.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: b"SADD" + raw[4:], "not a toy decoder"),
    (lambda raw: raw[:20], "not a toy decoder"),
    # num_heads, the fourth header field, read as 0
    (lambda raw: raw[:30] + bytes(8) + raw[38:], "must be positive"),
    (lambda raw: raw[:-8], "size mismatch"),
    (lambda raw: raw + bytes(8), "size mismatch"),
], ids=["magic", "truncated-header", "zero-heads", "truncated",
        "trailing-bytes"])
def test_load_rejects_a_malformed_file(tmp_path, corrupt, message):
    path = tmp_path / "m.bin"
    ToyDecoder(CFG).save(str(path))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        ToyDecoder.load(str(path))


# -----------------------------
# KV cache bookkeeping
# -----------------------------

def test_kv_cache_overflow():
    cfg = ModelConfig(vocab_size=16, embed_dim=8, num_layers=1, num_heads=2,
                      ffn_dim=16, frame_dim=4, adapter_hidden=8,
                      max_context=4, seed=0)
    m = ToyDecoder(cfg)
    cache = m.new_cache()
    m.forward(cache, _items(m, 0, [5, 6, 7]))
    with pytest.raises(ContextOverflow):
        m.forward(cache, _items(m, 0, [5, 6]))


def test_rollback_guard_blocks_committed_prefix():
    m = ToyDecoder(CFG)
    cache = m.new_cache()
    m.forward(cache, _items(m, 0, [5, 6]))
    cache.mark_chunk()
    m.forward(cache, _items(m, 0, [7, 8]))
    cache.rollback(2)  # back to the boundary: fine
    assert len(cache) == 2
    with pytest.raises(RollbackPastChunkBoundary):
        cache.rollback(1)
    with pytest.raises(ValueError):
        cache.rollback(99)


def _sealed_kv():
    """Six positions sealed below the mark, two more above it."""
    m = ToyDecoder(CFG)
    cache = m.new_cache()
    m.forward(cache, _items(m, 4, [5, 6]))
    cache.mark_chunk()
    m.forward(cache, _items(m, 0, [7, 8]))
    return cache


def _sealed_symbolic():
    cache = SymbolicCache()
    cache.append_items([_speech(0, 2), text(10), text(0)])
    cache.mark_chunk()
    cache.append_items([text(11), _speech(2)])
    return cache


def test_kv_rewind_catches_any_single_edit_below_the_mark():
    cache = _sealed_kv()
    assert cache.mark == 6 and cache.sealed == cache.checksum(6)
    for rows in cache.k + cache.v:
        for idx in np.ndindex(cache.mark, rows.shape[1]):
            saved = rows[idx]
            rows[idx] += 1.0
            with pytest.raises(ImmutabilityViolation):
                cache.rewind()
            assert len(cache) == 8
            rows[idx] = saved
    # the unsealed suffix is free to change
    cache.k[0][7, 0] += 1.0
    assert cache.rewind() == 2 and len(cache) == cache.mark == 6


def test_symbolic_rewind_catches_any_single_edit_below_the_mark():
    cache = _sealed_symbolic()
    assert cache.mark == 4 and cache.sealed == cache.checksum(4)
    for i in range(cache.mark):
        other_kind = ord("t") if cache.kinds[i] == ord("s") else ord("s")
        for log, edited in ((cache.values, cache.values[i] + 1),
                            (cache.kinds, other_kind)):
            saved, log[i] = log[i], edited
            with pytest.raises(ImmutabilityViolation):
                cache.rewind()
            assert len(cache) == 6
            log[i] = saved
    assert cache.rewind() == 2 and len(cache) == cache.mark == 4


@pytest.mark.parametrize("sealed_cache", [_sealed_kv, _sealed_symbolic],
                         ids=["kv", "symbolic"])
def test_a_branch_carries_the_seal(sealed_cache):
    cache = sealed_cache()
    fork = cache.branch()
    assert (fork.mark, fork.sealed) == (cache.mark, cache.sealed)
    with pytest.raises(RollbackPastChunkBoundary):
        fork.rollback(fork.mark - 1)
    assert fork.rewind() == cache.rewind() == 2


@pytest.mark.parametrize("sealed_cache", [_sealed_kv, _sealed_symbolic],
                         ids=["kv", "symbolic"])
def test_compact_keeps_a_path_and_cuts_the_rest(sealed_cache):
    """``compact(root, rows)`` moves the listed rows down to ``root`` in
    order and cuts the rest: the cache then holds, hashes and counts what
    one holding those rows in that order would. Below the mark it raises
    as a rollback does, and a row outside ``root`` up to the end raises
    ``ValueError``; neither changes the cache."""
    cache = sealed_cache()
    mark = cache.mark
    if isinstance(cache, KVCache):
        m = ToyDecoder(CFG)
        m.forward(cache, _items(m, 2, [9, 10]))
    else:
        cache.append_items([text(12), _speech(3), text(13)])
    end, kept = len(cache), [mark + 1, mark + 3, len(cache) - 1]
    order = [*range(mark), *kept]
    if isinstance(cache, KVCache):
        want = [a[order] for a in cache.k + cache.v]
    else:
        want = SymbolicCache()
        want.append_items([_speech(cache.values[i]) if cache.kinds[i] == ord("s")
                           else text(cache.values[i]) for i in order])
    for root, rows, error in ((mark - 1, [], RollbackPastChunkBoundary),
                              (mark, [mark - 1], ValueError),
                              (mark, [end], ValueError)):
        before = _state(cache)
        with pytest.raises(error):
            cache.compact(root, rows)
        assert _state(cache) == before
    cache.compact(mark, kept)
    assert len(cache) == len(order) and cache.mark == mark
    if isinstance(cache, KVCache):
        assert all(np.array_equal(a[:len(order)], w)
                   for a, w in zip(cache.k + cache.v, want))
    else:
        assert _state(cache) == _state(want)
        assert cache.checksum() == want.checksum()
    assert cache.rewind() == 3


def test_an_unsealed_cache_rewinds_to_empty():
    cache = SymbolicCache()
    cache.append_items([_speech(0), text(10)])
    assert (cache.mark, cache.sealed) == (0, None)
    assert cache.rewind() == 2 and len(cache) == 0


def test_kv_cache_rejects_a_negative_target():
    m = ToyDecoder(CFG)
    cache = m.new_cache()
    m.forward(cache, _items(m, 0, [5, 6]))
    with pytest.raises(ValueError, match="negative"):
        cache.rollback(-1)
    with pytest.raises(ValueError, match="negative"):
        cache.checksum(-1)
    assert len(cache) == 2


def test_kv_checksum_equals_the_copying_formula():
    """Hashing the live rows in place gives the value the former
    ``.tobytes()`` copies gave, at every cut and across a regrow."""
    m = ToyDecoder(CFG)
    cache = m.new_cache()
    m.forward(cache, _items(m, 20, [5, 6, 7]))
    for n in range(len(cache) + 1):
        c = 0
        for k, v in zip(cache.k, cache.v):
            c = zlib.crc32(k[:n].tobytes(), c)
            c = zlib.crc32(v[:n].tobytes(), c)
        assert cache.checksum(n) == c


def test_branch_is_independent_and_checksum_stable():
    m = ToyDecoder(CFG)
    cache = m.new_cache()
    m.forward(cache, _items(m, 0, [5, 6, 7]))
    cache.mark_chunk()
    before = cache.checksum()
    fork = cache.branch()
    assert fork.mark == cache.mark
    assert fork.checksum() == before
    m.forward(fork, _items(m, 0, [8]))
    assert len(cache) == 3 and len(fork) == 4
    assert cache.checksum() == before
    # prefix rows agree after divergence
    assert fork.checksum(3) == before
    # rows past the live length hold no data, so they cannot be hashed
    with pytest.raises(ValueError):
        cache.checksum(4)


def test_parent_grows_past_capacity_after_branch():
    m = ToyDecoder(CFG)
    cache = m.new_cache()
    m.forward(cache, _items(m, 6, [5, 6, 7]))
    cache.mark_chunk()
    m.forward(cache, _items(m, 0, [8, 9, 10]))
    fork = cache.branch()
    rows = [a[:12].copy() for a in fork.k + fork.v]
    before = fork.checksum()
    sealed = cache.checksum(9)
    capacity = cache.k[0].shape[0]
    # the parent rewrites rows 9..11 and grows past its capacity
    cache.rollback(9)
    m.forward(cache, _items(m, 40, [11]))
    assert cache.k[0].shape[0] > capacity
    assert fork.checksum() == before
    assert all(np.array_equal(a[:12], r) for a, r in zip(fork.k + fork.v, rows))
    assert cache.checksum(9) == sealed


def test_branch_allocates_live_rows_not_max_context():
    cfg = ModelConfig(vocab_size=16, embed_dim=8, num_layers=2, num_heads=2,
                      ffn_dim=16, frame_dim=4, adapter_hidden=8,
                      max_context=2048, seed=0)
    m = ToyDecoder(cfg)
    cache = m.new_cache()
    m.forward(cache, _items(m, 2, [5]))
    fork = cache.branch()
    # a 3-row prefix costs tens of rows per array, not max_context rows
    row_bytes = cfg.embed_dim * 8
    arrays = 2 * cfg.num_layers
    assert sum(a.nbytes for a in fork.k + fork.v) <= arrays * 32 * row_bytes
    assert sum(a.nbytes for a in cache.k + cache.v) <= arrays * 32 * row_bytes


# max_context 40 is not a power of two, so growth also hits the cap
GROW_CFG = ModelConfig(vocab_size=16, embed_dim=8, num_layers=2, num_heads=2,
                       ffn_dim=16, frame_dim=4, adapter_hidden=8,
                       max_context=40, seed=1)

_CACHE_OPS = st.one_of(
    st.tuples(st.just("forward"), st.integers(1, 12), st.integers(0, 2**16)),
    st.tuples(st.just("mark")),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("branch"), st.booleans()),
)


def _random_span(model, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if rng.random() < 0.5:
            out.append(SpeechSpan(i, rng.standard_normal(
                (1, model.cfg.frame_dim))))
        else:
            out.append(text(int(rng.integers(0, model.cfg.vocab_size))))
    return out


def _random_text(model, n, seed):
    """``n`` random text items, the rows of a tree step."""
    rng = np.random.default_rng(seed)
    return [text(int(t))
            for t in rng.integers(0, model.cfg.vocab_size, size=n)]


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(_CACHE_OPS, max_size=25))
def test_growing_cache_matches_one_shot_and_replay(ops):
    """Forward spans, marks, rollbacks to the mark and branches, in any
    order: logits match a one-shot forward, rows match a fresh replay of
    the live spans, capacity stays within max_context, and overflow fires
    exactly past max_context without growing anything."""
    m = ToyDecoder(GROW_CFG)
    limit = GROW_CFG.max_context
    cache = m.new_cache()
    spans = []    # live forward spans, oldest first
    marks = []    # live span count at each chunk mark
    left = []     # (cache, checksum) of branch ends no longer written
    for op in ops:
        if op[0] == "forward":
            items = _random_span(m, op[1], op[2])
            if len(cache) + len(items) > limit:
                with pytest.raises(ContextOverflow):
                    m.forward(cache, items)
            else:
                logits = m.forward(cache, items)
                spans.append(items)
                one_shot = m.forward_sequence([it for s in spans for it in s])
                assert np.allclose(logits, one_shot[-1], rtol=1e-9, atol=1e-12)
        elif op[0] == "mark":
            cache.mark_chunk()
            marks.append(len(spans))
        elif op[0] == "rollback":
            if marks:
                cache.rollback(cache.mark)
                del spans[marks[-1]:]
        else:
            fork = cache.branch()
            assert fork.mark == cache.mark
            assert not any(np.shares_memory(a, b) for a in fork.k + fork.v
                           for b in cache.k + cache.v)
            if op[1]:
                left.append((cache, cache.checksum()))
                cache = fork
            else:
                left.append((fork, fork.checksum()))

        assert len(cache) == sum(len(s) for s in spans)
        shapes = [a.shape for a in cache.k + cache.v]
        assert all(len(cache) <= rows <= limit for rows, _ in shapes)
        fresh = m.new_cache()
        for s in spans:
            m.forward(fresh, s)
        assert cache.checksum() == fresh.checksum()
        over = np.zeros((limit - len(cache) + 1, GROW_CFG.embed_dim))
        with pytest.raises(ContextOverflow):
            cache.append(0, over, over)
        assert [a.shape for a in cache.k + cache.v] == shapes
    for other, checksum in left:
        assert other.checksum() == checksum


# a token tree: per step, each row's parent among the previous step's rows
# (drawn modulo their count; the first step's parent is the root)
_TREES = st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=4),
                  min_size=1, max_size=4)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 3), _TREES,
       st.integers(0, 2**16))
def test_forward_tree_matches_a_linear_forward_of_each_path(
        marked, root_len, hidden_len, tree, seed):
    """A token tree grown above a sealed prefix, a span of rows per step,
    over rows it must not see: every row's logits are those a linear cache
    holding its path gives its last row, to float rounding. Compacting a
    leaf's path leaves the rows and checksum a linear forward of that path
    leaves, and the sealed prefix never changes."""
    m = ToyDecoder(GROW_CFG)
    cache = m.new_cache()
    for i, n in enumerate((marked, root_len, hidden_len)):
        if n:  # the rows below the mark, the rest below the root, then rows
            m.forward(cache, _random_span(m, n, seed + i))  # the tree hides
        if i == 0:
            cache.mark_chunk()
        if i == 1:
            root, sealed, linear = len(cache), cache.sealed, cache.branch()
    paths = {(): []}  # tree rows above root -> their tokens
    last = [()]
    for step, parents in enumerate(tree):
        rows = [last[p % len(last)] for p in parents]
        items = _random_text(m, len(rows), seed + 3 + step)
        start = len(cache)
        logits = m.forward_tree(cache, root, items, rows)
        assert logits.shape == (len(rows), GROW_CFG.vocab_size)
        last = []
        for i, (path, item, row) in enumerate(zip(rows, items, logits)):
            ref = linear.branch()
            for t in paths[path]:
                m.forward(ref, [t])
            assert np.allclose(row, m.forward(ref, [item]),
                               rtol=1e-9, atol=1e-12)
            last.append(path + (start + i,))
            paths[last[-1]] = paths[path] + [item]
    ref = linear.branch()
    for t in paths[last[-1]]:
        m.forward(ref, [t])
    cache.compact(root, last[-1])
    assert len(cache) == len(ref) and cache.mark == ref.mark
    assert cache.checksum(root) == ref.checksum(root)
    assert cache.checksum(cache.mark) == sealed
    for a, b in zip(cache.k + cache.v, ref.k + ref.v):
        assert np.allclose(a[:len(ref)], b[:len(ref)], rtol=1e-9, atol=1e-12)


def _eager_copy(cache):
    """A cache with ``cache``'s rows, mark and seal in arrays of its own,
    copied row by row through the public API rather than by ``branch``."""
    n = len(cache)
    width = cache.k[0].shape[1] if cache.k else 0
    copy = KVCache(len(cache.k), width, cache.max_context)
    for li, (k, v) in enumerate(zip(cache.k, cache.v)):
        copy.append(li, k[:n], v[:n])
    copy.advance(n)
    copy.mark, copy.sealed = cache.mark, cache.sealed
    return copy


def test_a_deep_copy_of_a_reader_owns_its_rows():
    """``copy.deepcopy`` of a branch, as ``StreamingSession.fork`` makes of
    a session cache, owns its rows and shares nothing with the caches it
    was copied from. Once they are gone it rolls back and writes there
    without copying its rows again, and both it and a branch of it match
    eager copies bit for bit."""
    m = ToyDecoder(GROW_CFG)
    parent = m.new_cache()
    m.forward(parent, _random_span(m, 36, 0))
    branch = parent.branch()
    m.forward(branch, _random_text(m, 1, 1))
    dup, ref = copy.deepcopy(branch), _eager_copy(branch)
    del parent, branch
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dup.rollback(30)
        ref.rollback(30)
        assert np.array_equal(m.forward(dup, _random_text(m, 1, 2)),
                              m.forward(ref, _random_text(m, 1, 2)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 30 * GROW_CFG.embed_dim * 8 * 2 * GROW_CFG.num_layers
    pairs = [(dup, ref), (dup.branch(), _eager_copy(ref))]
    for i, (cache, ref) in enumerate(pairs):
        cache.rollback(3 + i)
        ref.rollback(3 + i)
        span = _random_span(m, 20, i)
        assert np.array_equal(m.forward(cache, span), m.forward(ref, span))
    for cache, ref in pairs:
        assert cache.checksum() == ref.checksum()
        assert _same_rows(cache, ref)


def test_forward_tree_rejects_a_path_outside_the_tree(edge_example):
    """A path naming a row below the root, past the cache's end or one of
    the rows being added, a root past the end, and a path count that is
    not the item count all raise ``ValueError`` on both model kinds, and
    the cache stays as it was."""
    toy = ToyDecoder(CFG)
    oracle = make_boundary_oracle([edge_example], 1).bind("edge", "ss")
    for m in (toy, oracle):
        cache = m.new_cache()
        m.forward(cache, _items(m, 0, [4, 5, 6, 7]))
        before = _state(cache)
        for root, paths in ((2, [(1,)]), (2, [(4,)]), (2, [(-1,)]),
                            (5, [()]), (2, [(), ()])):
            with pytest.raises(ValueError):
                m.forward_tree(cache, root, [text(8)], paths)
            assert _state(cache) == before


def test_forward_tree_of_no_rows_is_an_empty_array():
    """A tree step of no rows gives ``(0, vocab_size)`` logits and leaves
    the cache untouched; a path count that is not the item count still
    raises."""
    m = ToyDecoder(CFG)
    cache = m.new_cache()
    m.forward(cache, _items(m, 0, [4, 5]))
    before = (len(cache), cache.checksum())
    logits = m.forward_tree(cache, 2, [], [])
    assert logits.shape == (0, CFG.vocab_size)
    assert logits.dtype == np.float64
    assert (len(cache), cache.checksum()) == before
    with pytest.raises(ValueError, match="one path per item"):
        m.forward_tree(cache, 2, [text(4)], [])
    assert (len(cache), cache.checksum()) == before


@pytest.mark.parametrize("depth", [0, 2])
def test_a_tree_overflows_where_a_path_or_its_rows_would(depth):
    """A tree step raises ``ContextOverflow`` once its rows would take the
    cache past ``max_context``. A row's path lies in the cache, so that
    covers every row whose position reaches ``max_context``, where a
    linear hypothesis overflows; it also covers rows whose paths all fit.
    Each overflow leaves the cache as it was; a tree that fits decodes."""
    m = _exact_model(depth, 2, 8)
    limit = m.cfg.max_context
    root = limit - 4

    def grown(*steps):
        cache = m.new_cache()
        m.forward(cache, _random_span(m, root, depth))
        for paths in steps:
            m.forward_tree(cache, root, _random_text(m, len(paths), 1), paths)
        return cache

    chain = grown([()], [(root,)], [(root, root + 1)],
                  [(root, root + 1, root + 2)])
    siblings = grown([(), (), (), ()])
    cases = ((chain, [tuple(range(root, limit))]),  # at position limit
             (siblings, [(root,)]))                  # at position root + 1
    for cache, paths in cases:
        assert len(cache) == limit
        before = (len(cache), cache.checksum())
        with pytest.raises(ContextOverflow):
            m.forward_tree(cache, root, [text(3)], paths)
        assert (len(cache), cache.checksum()) == before
    fits = grown([(), (), ()])
    m.forward_tree(fits, root, [text(3)], [(root,)])
    assert len(fits) == limit


def _state(cache):
    if isinstance(cache, SymbolicCache):
        return (bytes(cache.kinds), cache.values.tobytes(), cache.real_count,
                cache.max_frame)
    return len(cache), cache.checksum()


@pytest.mark.parametrize("kind", ["toy", "symbolic"])
def test_speech_reaches_a_model_only_as_a_span(kind, edge_example):
    """A speech ``Position`` raises ``ValueError`` before the cache
    changes, wherever it sits in the items; so does a ``SpeechSpan`` given
    to ``forward_tree``, whose rows are text positions."""
    if kind == "toy":
        m = ToyDecoder(CFG)
        frames = np.ones((3, CFG.frame_dim))
    else:
        m = make_boundary_oracle([edge_example], confusion_window=1).bind(
            "edge", "ss")
        frames = np.zeros((3, 1))
    cache = m.new_cache()
    m.forward(cache, [SpeechSpan(0, frames), text(5)])
    before = _state(cache)
    for items in ([speech(3)],
                  [text(4), SpeechSpan(3, frames), speech(6), text(5)]):
        with pytest.raises(ValueError, match="SpeechSpan"):
            m.forward(cache, items)
        assert _state(cache) == before
    for item in (speech(3), SpeechSpan(4, frames[:1])):
        with pytest.raises(ValueError):
            m.forward_tree(cache, len(cache), [item], [()])
        assert _state(cache) == before


def test_a_span_forwards_as_its_one_frame_spans():
    """A span of n frames appends the n positions its one-frame spans do:
    the toy's logits agree to float rounding (the adapter runs as one
    matrix), and the symbolic cache holds the same logs and counts."""
    m = ToyDecoder(CFG)
    frames = np.random.default_rng(3).standard_normal((6, CFG.frame_dim))
    whole = [text(4), SpeechSpan(2, frames), text(5)]
    split = [whole[0], *(SpeechSpan(2 + i, frames[i:i + 1]) for i in range(6)),
             whole[-1]]
    assert sum(map(len, whole)) == sum(map(len, split)) == 8
    a, b = m.new_cache(), m.new_cache()
    assert np.allclose(m.forward(a, whole), m.forward(b, split),
                       rtol=1e-12, atol=1e-15)
    assert len(a) == len(b) == 8
    assert np.allclose(m.forward_sequence(whole), m.forward_sequence(split),
                       rtol=1e-12, atol=1e-15)
    a, b = SymbolicCache(), SymbolicCache()
    a.append_items(whole)
    b.append_items(split)
    assert _state(a) == _state(b)
    assert (a.max_frame, a.values.tolist()) == (7, [4, 2, 3, 4, 5, 6, 7, 5])


def test_layer_norm_is_bit_identical_to_two_pass():
    """The one-pass layer norm reads exactly as mean-then-variance."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        d = int(rng.choice([8, 16, 64]))
        x = rng.standard_normal((int(rng.integers(1, 12)), d)) \
            * rng.uniform(0.01, 100.0)
        g, b = rng.standard_normal(d), rng.standard_normal(d)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        assert np.array_equal(_layer_norm(x, g, b),
                              (x - mu) / np.sqrt(var + 1e-5) * g + b)


def test_layer_norm_of_a_lone_row_is_bit_identical():
    """A 1-D row, reduced to Python floats, reads exactly as the same row
    in a 2-D block and as mean-then-variance."""
    rng = np.random.default_rng(1)
    for _ in range(2000):
        d = int(rng.choice([8, 16, 64]))
        x = rng.standard_normal(d) * rng.uniform(0.01, 100.0)
        g, b = rng.standard_normal(d), rng.standard_normal(d)
        got = _layer_norm(x, g, b)
        assert np.array_equal(got, _layer_norm(x[None, :], g, b)[0])
        assert np.array_equal(got, (x - x.mean()) / np.sqrt(x.var() + 1e-5)
                              * g + b)


# -----------------------------
# reference forward: every row as a 2-D array
# -----------------------------

def _reference_layer_norm(x, g, b):
    """The former layer norm, kept as the oracle: keepdims reductions over
    2-D rows."""
    n = x.shape[-1]
    d = x - x.sum(axis=-1, keepdims=True) / n
    return d / np.sqrt((d * d).sum(axis=-1, keepdims=True) / n + 1e-5) * g + b


def _reference_attend(model, cache, li, q, k, v, hidden=None):
    s = q.shape[0]
    h_count = model.cfg.num_heads
    dh = model.cfg.embed_dim // h_count
    new_len = len(cache) + s
    cache.append(li, k, v)
    kh = cache.k[li][:new_len].reshape(new_len, h_count, dh).transpose(1, 0, 2)
    vh = cache.v[li][:new_len].reshape(new_len, h_count, dh).transpose(1, 0, 2)
    qh = q.reshape(s, h_count, dh).transpose(1, 0, 2)
    scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(dh)
    if hidden is not None:
        scores = np.where(~hidden[None, :, :], scores, -np.inf)
    elif s > 1:
        mask = build_attention_mask(s, new_len)
        scores = np.where(mask[None, :, :], scores, -np.inf)
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return (probs @ vh).transpose(1, 0, 2).reshape(s, model.cfg.embed_dim)


def _reference_layers(model, x, spans, hidden=None):
    """The former layer body, kept as the oracle: every row, a lone one
    too, runs as a 2-D array through a ``ctx`` buffer, under the causal
    mask or ``hidden``. Q, K and V come
    from one product with ``wq, wk, wv`` stacked into a ``[3d, d]`` block,
    as the decoder projects: BLAS rounds three ``[d, d]`` products apart
    differently from some row count on (7 rows at d 64)."""
    d = model.cfg.embed_dim
    for li, lp in enumerate(model.params.layers):
        h = _reference_layer_norm(x, lp.ln1_g, lp.ln1_b)
        qkv = (h @ np.concatenate([lp.wq, lp.wk, lp.wv]).T
               + np.concatenate([lp.bq, lp.bk, lp.bv]))
        q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
        ctx = np.empty_like(x)
        for cache, rows in spans:
            ctx[rows] = _reference_attend(model, cache, li, q[rows], k[rows],
                                          v[rows], hidden)
        x = x + ctx @ lp.wo.T + lp.bo
        h2 = _reference_layer_norm(x, lp.ln2_g, lp.ln2_b)
        ff = np.maximum(h2 @ lp.ffn_w1.T + lp.ffn_b1, 0.0) @ lp.ffn_w2.T
        x = x + ff + lp.ffn_b2
    for cache, rows in spans:
        cache.advance(rows.stop - rows.start)
    return x @ model.params.out_w.T + model.params.out_b


def _exact_model(depth, heads, d, max_context=48):
    return ToyDecoder(ModelConfig(vocab_size=16, embed_dim=d, num_layers=depth,
                                  num_heads=heads, ffn_dim=2 * d, frame_dim=4,
                                  adapter_hidden=8, max_context=max_context,
                                  seed=depth))


def _same_rows(a, b):
    """Equal lengths and bit-equal live K/V rows in every layer."""
    return len(a) == len(b) and all(
        np.array_equal(x[: len(a)], y[: len(b)]) for x, y in zip(a.k + a.v, b.k + b.v))


# cache lengths either side of the 16-row start and its first doubling
_EDGE_LENGTHS = st.sampled_from([0, 15, 16, 17, 31, 32, 33])


@settings(max_examples=80, deadline=None, database=None)
@given(depth=st.integers(0, 3), heads=st.sampled_from([1, 2, 4]),
       d=st.sampled_from([8, 12, 16, 32, 64]), how=st.sampled_from(
           ["text", "speech", "span"]),
       length=_EDGE_LENGTHS, seed=st.integers(0, 2**16))
def test_forward_is_bit_identical_to_the_reference(depth, heads, d, how,
                                                   length, seed):
    """Lone text and speech rows (1-D inside the layer body) and masked
    spans give the logits and append the K/V rows the all-2-D reference
    body does, bit for bit."""
    m = _exact_model(depth, heads, d)
    cache = m.new_cache()
    if length:
        m.forward(cache, _random_span(m, length, seed))
    rng = np.random.default_rng(seed)
    if how == "text":
        items = [text(int(rng.integers(0, m.cfg.vocab_size)))]
    elif how == "speech":
        items = [SpeechSpan(0, rng.standard_normal((1, m.cfg.frame_dim)))]
    else:
        items = _random_span(m, int(rng.integers(2, 6)), seed + 7)
    ref = cache.branch()
    x = m.embed_items(items, start=len(cache))
    got = m.forward_embedded(x, cache)
    want = _reference_layers(m, x, [(ref, slice(0, len(items)))])
    assert got.shape == want.shape == (len(x), m.cfg.vocab_size)
    assert np.array_equal(got, want)
    assert _same_rows(cache, ref)


@settings(max_examples=80, deadline=None, database=None)
@given(depth=st.integers(0, 3), heads=st.sampled_from([1, 2, 4]),
       d=st.sampled_from([8, 12, 16, 32, 64]), root=_EDGE_LENGTHS,
       count=st.integers(1, 4), per=st.integers(1, 3), lone=st.integers(0, 2),
       seed=st.integers(0, 2**16))
@example(depth=4, heads=4, d=64, root=33, count=3, per=3, lone=0, seed=7)
@example(depth=2, heads=4, d=64, root=15, count=2, per=2, lone=1, seed=8)
@example(depth=3, heads=4, d=64, root=33, count=4, per=3, lone=2, seed=9)
def test_grouped_attention_is_bit_identical_to_the_reference(
        depth, heads, d, root, count, per, lone, seed):
    """One ``forward_tree`` step over a shuffled mix of sibling groups
    (``per`` children of each of ``count`` rows one step past the root,
    as a beam step expands its hypotheses) and ``lone`` rows on the root
    alone gives the logits and appends the K/V rows the all-2-D reference
    body does under the same mask, bit for bit. Roots sit either side of
    16 and 32 rows; the first example has beam_toy's model shape and a
    width-3 beam step's 9 rows, the last the largest draw: 51 rows, in a
    model with room for 64."""
    m = _exact_model(depth, heads, d, max_context=64)
    cache = m.new_cache()
    if root:
        m.forward(cache, _random_span(m, root, seed))
    m.forward_tree(cache, root, _random_text(m, count, seed + 1),
                   [()] * count)
    paths = [(root + p,) for p in range(count) for _ in range(per)]
    paths += [()] * lone
    order = np.random.default_rng(seed).permutation(len(paths))
    paths = [paths[i] for i in order]
    items = _random_text(m, len(paths), seed + 2)
    n = len(cache)
    hidden = np.ones((len(items), n + len(items)), dtype=bool)
    hidden[:, :root] = False
    for i, path in enumerate(paths):
        hidden[i, list(path) + [n + i]] = False
    x = m._embed(items, [root + len(path) for path in paths])
    ref = cache.branch()
    got = m.forward_tree(cache, root, items, paths)
    want = _reference_layers(m, x, [(ref, slice(0, len(items)))], hidden)
    assert got.shape == want.shape == (len(x), m.cfg.vocab_size)
    assert np.array_equal(got, want)
    assert _same_rows(cache, ref)


def test_branch_reserves_one_more_row_and_little_else():
    """A branch holds room for the next row, so a beam child's one-row
    forward does not regrow it, and reserves under 16 rows past that."""
    m = _exact_model(1, 2, 8)
    cache = m.new_cache()
    for n in range(m.cfg.max_context):
        fork = cache.branch()
        arrays = fork.k + fork.v
        assert all(n + 1 <= a.shape[0] <= min(n + 16, m.cfg.max_context)
                   for a in arrays)
        m.forward(fork, _random_span(m, 1, n))
        assert all(a is b for a, b in zip(fork.k + fork.v, arrays))
        m.forward(cache, _random_span(m, 1, n))


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_lone_row_at_max_context_overflows_untouched(depth):
    m = _exact_model(depth, 2, 8)
    cache = m.new_cache()
    m.forward(cache, _random_span(m, m.cfg.max_context, depth))
    before = (len(cache), cache.checksum())
    for item in (text(3), SpeechSpan(0, np.zeros((1, 4)))):
        with pytest.raises(ContextOverflow):
            m.forward(cache, [item])
        with pytest.raises(ContextOverflow):
            m.forward_tree(cache, len(cache), [item], [()])
    assert (len(cache), cache.checksum()) == before


# the kinds of cache ``KVCache.append`` serves: a new one, a branch before
# and after its first lone row, and a cache whose branch is still alive
_APPEND_KINDS = ["owned", "borrower", "borrower_kept", "lender"]


def _cache_of_kind(kind, n, seed):
    """A GROW_CFG-shaped cache of ``kind`` over ``n`` random rows, and the
    other caches made with it: the cache a branch was made from, or the
    branch of a cache, which has appended one row of its own where there
    is room. The same arguments build a bit-identical twin."""
    rng = np.random.default_rng(seed)
    layers, d = GROW_CFG.num_layers, GROW_CFG.embed_dim
    base = KVCache(layers, d, GROW_CFG.max_context)
    for li in range(layers):
        base.append(li, rng.standard_normal((n, d)), rng.standard_normal((n, d)))
    base.advance(n)
    if kind == "owned":
        return base, []
    fork = base.branch()
    if kind != "borrower" and n < GROW_CFG.max_context:
        for li in range(layers):
            fork.append(li, rng.standard_normal(d), rng.standard_normal(d))
        fork.advance(1)
    return (base, [fork]) if kind == "lender" else (fork, [base])


def _checksums(caches):
    return [c.checksum() for c in caches]


@settings(max_examples=120, deadline=None, database=None)
@given(kind=st.sampled_from(_APPEND_KINDS),
       n=st.sampled_from([0, 1, 14, 15, 16, 17, 31, 32, 33, 36]),
       s=st.sampled_from([None, 1, 2, 3]), seed=st.integers(0, 2**16))
def test_append_returns_the_rows_it_wrote(kind, n, s, seed):
    """``append`` of a lone 1-D row (``s`` None) or an ``[s, d]`` span
    writes at ``length`` and returns the layer's rows through the new ones,
    bit for bit the cache's ``k`` and ``v`` there, for every kind of cache.
    The rows below ``length``, and every row of the caches made with it,
    stay as the untouched twin's."""
    cache, others = _cache_of_kind(kind, n, seed)
    twin, twin_others = _cache_of_kind(kind, n, seed)
    start, d = len(cache), GROW_CFG.embed_dim
    rng = np.random.default_rng(seed + 1)
    shape = (d,) if s is None else (s, d)
    got = []
    for li in range(GROW_CFG.num_layers):
        k, v = rng.standard_normal(shape), rng.standard_normal(shape)
        keys, values = cache.append(li, k, v)
        assert keys.shape == values.shape == (start + len(np.atleast_2d(k)), d)
        assert np.array_equal(keys[start:], np.atleast_2d(k))
        assert np.array_equal(values[start:], np.atleast_2d(v))
        got.append((keys, values))
    for li, (keys, values) in enumerate(got):
        assert np.array_equal(keys, cache.k[li][:len(keys)])
        assert np.array_equal(values, cache.v[li][:len(values)])
    assert _checksums(others) == _checksums(twin_others)
    assert cache.checksum(start) == twin.checksum()


@pytest.mark.parametrize("kind", _APPEND_KINDS)
def test_append_past_max_context_changes_nothing(kind):
    """A lone row at ``max_context`` raises ``ContextOverflow`` and leaves
    the cache as its untouched twin is, in length, array shapes and
    checksum, and so the caches made with it."""
    n = GROW_CFG.max_context - (kind == "borrower_kept")
    cache, others = _cache_of_kind(kind, n, 0)
    twin, twin_others = _cache_of_kind(kind, n, 0)
    assert len(cache) == GROW_CFG.max_context
    row = np.ones(GROW_CFG.embed_dim)
    for li in range(GROW_CFG.num_layers):
        with pytest.raises(ContextOverflow):
            cache.append(li, row, row)
    assert _checksums(others) == _checksums(twin_others)
    assert len(cache) == len(twin)
    assert [a.shape for a in cache.k + cache.v] == [
        a.shape for a in twin.k + twin.v]
    assert cache.checksum() == twin.checksum()


@settings(max_examples=200, deadline=None, database=None)
@given(d=st.sampled_from([8, 12, 64]), shape=st.sampled_from(
           ["d->d", "d->2d", "2d->d", "d->vocab"]),
       vocab=st.sampled_from([16, 32]), rows=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_dot_on_a_transposed_view_is_matmul_bit_for_bit(d, shape, vocab,
                                                        rows, seed):
    """The layer body projects as ``a.dot(W.T)`` where the reference body
    writes ``a @ W.T``: the same product bit for bit, for a lone 1-D row
    (rows 0) and for 2-D blocks at the toy's projection shapes."""
    width = {"d": d, "2d": 2 * d, "vocab": vocab}
    n_in, n_out = (width[w] for w in shape.split("->"))
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.1, 0.1, size=(n_out, n_in))
    a = rng.standard_normal((rows, n_in) if rows else n_in)
    assert np.array_equal(a.dot(w.T), a @ w.T)


def test_in_place_parameter_edits_reach_the_forward():
    """The layer body reads views of ``params``: an in-place edit of any
    block gives ``forward`` the logits a decoder built afresh on the
    edited parameters computes, on a span and on a lone row."""
    from streamasr.model import _param_blocks

    m = _exact_model(2, 2, 8)
    span = [text(0)] + _random_span(m, 5, 3)

    def run(model):
        cache = model.new_cache()
        return model.forward(cache, span), model.forward(cache, [text(5)])

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    before = run(m)
    m.params.layers[0].wq[0, 0] += 0.5
    assert same(run(m), run(ToyDecoder(m.cfg, m.params)))
    assert not same(run(m), before)
    for block in _param_blocks(m.params):
        block += 0.5
        assert same(run(m), run(ToyDecoder(m.cfg, m.params)))


def _qkv_blocks(model):
    """Each layer's fused Q/K/V weight and bias blocks, after checking that
    ``wq, wk, wv`` and ``bq, bk, bv`` are their thirds and that the layer
    body projects through them."""
    d = model.cfg.embed_dim
    blocks = []
    for lp, weights in zip(model.params.layers, model._weights):
        for names, shape in ((("wq", "wk", "wv"), (3 * d, d)),
                             (("bq", "bk", "bv"), (3 * d,))):
            parts = [getattr(lp, name) for name in names]
            block = parts[0].base
            assert block.shape == shape
            for i, part in enumerate(parts):
                assert part.base is block and part.shape == (d, *shape[1:])
                assert part.ctypes.data == block.ctypes.data + i * part.nbytes
            blocks.append(block)
        assert all(w.base is b for w, b in zip(weights[2:4], blocks[-2:]))
    return blocks


def test_qkv_are_views_of_one_block_however_the_params_came(tmp_path):
    """A fresh draw, a loaded file and a caller's ``ToyParams`` of separate
    arrays all end up with each layer's Q/K/V as the thirds of one weight
    block and one bias block; a second decoder on fused parameters keeps
    their blocks, and saving then loading stays byte-exact."""
    cfg = ModelConfig(vocab_size=16, embed_dim=8, num_layers=3, num_heads=2,
                      ffn_dim=16, frame_dim=4, adapter_hidden=8,
                      max_context=64, seed=5)
    fresh = ToyDecoder(cfg)
    path = tmp_path / "m.bin"
    fresh.save(str(path))
    raw = path.read_bytes()
    loaded = ToyDecoder.load(str(path))
    params = dataclasses.replace(fresh.params, layers=[
        LayerParams(**{f.name: getattr(lp, f.name).copy()
                       for f in dataclasses.fields(lp)})
        for lp in fresh.params.layers])
    assert all(lp.wq.base is None and lp.bq.base is None for lp in params.layers)
    built = ToyDecoder(cfg, params)
    items = _random_span(fresh, 9, 1)
    want = fresh.forward_sequence(items)
    for m in (fresh, loaded, built):
        blocks = _qkv_blocks(m)
        assert all(a is b for a, b in zip(_qkv_blocks(ToyDecoder(cfg, m.params)),
                                          blocks))
        assert np.array_equal(m.forward_sequence(items), want)
        m.save(str(path))
        assert path.read_bytes() == raw
        assert ToyDecoder.load(str(path)).params.layers[0].wk.base is not None


# -----------------------------
# symbolic cache
# -----------------------------

def test_symbolic_cache_counts(sp):
    c = SymbolicCache()
    c.append_items([_speech(0, 2), text(10), text(sp.pad)])
    assert len(c) == 4
    assert c.real_count == 1      # pad is not a real token
    assert c.max_frame == 1
    c.mark_chunk()
    c.append_items([text(11)])
    assert c.real_count == 2
    c.rollback(4)
    assert c.real_count == 1
    fork = c.branch()
    fork.append_items([_speech(5)])
    assert fork.max_frame == 5 and c.max_frame == 1


def test_symbolic_checksum_tracks_content(sp):
    a = SymbolicCache()
    b = SymbolicCache()
    a.append_items([text(10)])
    b.append_items([text(11)])
    assert a.checksum() != b.checksum()
    b.rollback(0)
    b.append_items([text(10)])
    assert a.checksum() == b.checksum()


def test_symbolic_checksum_rejects_a_cut_past_the_end(sp):
    c = SymbolicCache()
    c.append_items([_speech(0), text(10)])
    assert c.checksum(2) == c.checksum()
    with pytest.raises(ValueError, match="beyond length 2"):
        c.checksum(3)


def test_symbolic_cache_rejects_a_negative_target(sp):
    c = SymbolicCache()
    c.append_items([_speech(0), text(10)])
    with pytest.raises(ValueError, match="negative"):
        c.rollback(-1)
    with pytest.raises(ValueError, match="negative"):
        c.checksum(-1)
    assert (len(c), c.real_count, c.max_frame) == (2, 1, 0)


_SYM_ITEMS = st.one_of(
    st.builds(_speech, st.integers(0, 60), st.integers(0, 4)),
    st.builds(text, st.integers(0, 12)),
)
_SYM_OPS = st.one_of(
    st.tuples(st.just("append"), st.lists(_SYM_ITEMS, max_size=5)),
    st.tuples(st.just("mark"), st.none()),
    st.tuples(st.just("rollback"), st.integers(0, 40)),
    st.tuples(st.just("branch"), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), _SYM_OPS), max_size=40),
       st.data())
def test_symbolic_cache_matches_a_fresh_rebuild(ops, data):
    """Random append/mark/rollback/branch sequences over several live
    branches. Each cache then hashes and counts exactly like a fresh cache
    built from its surviving items, also cut at a random point, and bumping
    any value below its mark changes the sealed checksum."""
    caches = [(SymbolicCache(), [])]  # (cache, surviving items)
    for which, (op, arg) in ops:
        cache, items = caches[which % len(caches)]
        if op == "append":
            cache.append_items(arg)
            # one item per position: a rebuild from one-frame spans
            items.extend(_speech(p.value) if p.kind == "s" else p
                         for p in _positions(arg))
        elif op == "mark":
            cache.mark_chunk()
        elif op == "rollback":
            target = arg % (len(items) + 1)
            if target < cache.mark:
                with pytest.raises(RollbackPastChunkBoundary):
                    cache.rollback(target)
            else:
                cache.rollback(target)
                del items[target:]
        else:
            caches.append((cache.branch(), list(items)))

    for cache, items in caches:
        fresh = SymbolicCache()
        fresh.append_items(items)
        assert len(cache) == len(items)
        assert cache.checksum() == fresh.checksum()
        assert cache.real_count == fresh.real_count
        assert cache.max_frame == fresh.max_frame
        cut = data.draw(st.integers(0, len(items)))
        prefix = SymbolicCache()
        prefix.append_items(items[:cut])
        assert cache.checksum(cut) == prefix.checksum()
        mark = cache.mark
        sealed = cache.checksum(mark)
        for i in range(mark):
            cache.values[i] += 1
            assert cache.checksum(mark) != sealed
            cache.values[i] -= 1
        assert cache.checksum(mark) == sealed


def _joined_checksum(kinds, values, n):
    """The symbolic checksum as first defined, over kinds as a list of
    one-character strings: the joined kinds' UTF-8, then the values."""
    return zlib.crc32(array("q", values[:n]),
                      zlib.crc32("".join(kinds[:n]).encode()))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), _SYM_OPS), max_size=40))
def test_symbolic_checksum_hashes_the_same_bytes_as_the_joined_kinds(ops):
    """Random append/mark/rollback/branch sequences: every seal, and the
    checksum of every prefix of every live branch, equal the joined-kinds
    formula over plain lists kept beside the caches."""
    caches = [(SymbolicCache(), [], [])]  # (cache, kinds, values)
    for which, (op, arg) in ops:
        cache, kinds, values = caches[which % len(caches)]
        if op == "append":
            cache.append_items(arg)
            kinds += [p.kind for p in _positions(arg)]
            values += [p.value for p in _positions(arg)]
        elif op == "mark":
            cache.mark_chunk()
            assert cache.sealed == _joined_checksum(kinds, values, len(kinds))
        elif op == "rollback":
            target = arg % (len(kinds) + 1)
            if target >= cache.mark:
                cache.rollback(target)
                del kinds[target:], values[target:]
        else:
            caches.append((cache.branch(), list(kinds), list(values)))

    for cache, kinds, values in caches:
        assert cache.checksum() == _joined_checksum(kinds, values, len(kinds))
        for n in range(len(kinds) + 1):
            assert cache.checksum(n) == _joined_checksum(kinds, values, n)


def _symbolic_state(cache):
    return (bytes(cache.kinds), cache.values.tolist(), cache.real_count,
            cache.max_frame)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.builds(text, st.integers(0, 12)),
                          st.builds(_speech, st.integers(0, 60),
                                    st.integers(0, 4))), max_size=12),
       st.integers(0, 60), st.data())
def test_a_lone_text_row_lands_as_the_item_loop_lands_it(items, frame, data):
    """Text ids (the specials included) and spans (empty ones included),
    given one per call, which sends a lone text row past the item loop,
    or all in one call: both caches end with the same logs, counts and
    prefix checksums. A stray speech ``Position`` raises on both paths and
    leaves the cache as it was."""
    lone, loop = SymbolicCache(), SymbolicCache()
    for it in items:
        lone.append_items([it])
    loop.append_items(items)
    assert _symbolic_state(lone) == _symbolic_state(loop)
    for n in range(len(loop) + 1):
        assert lone.checksum(n) == loop.checksum(n)
    assert lone.checksum() == loop.checksum()

    stray = speech(frame)
    before = _symbolic_state(lone)
    with pytest.raises(ValueError, match="SpeechSpan"):
        lone.append_items([stray])
    assert _symbolic_state(lone) == before
    at = data.draw(st.integers(0, len(items)))
    with pytest.raises(ValueError, match="SpeechSpan"):
        loop.append_items(items[:at] + [stray] + items[at:])
    assert _symbolic_state(loop) == before


def test_symbolic_cache_footprint_per_position(sp):
    """6,000 mixed positions, appended a chunk at a time as the engine
    does, cost at most 16 bytes each: one byte of kind, eight of value,
    and the logs' spare capacity."""
    chunks = [[_speech(8 * c, 8), text(sp.first_text_id + c % 7),
               text(sp.pad)] for c in range(600)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = SymbolicCache()
        for items in chunks:
            cache.append_items(items)
            cache.mark_chunk()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cache) == 6000
    assert held / len(cache) <= 16


# -----------------------------
# oracles
# -----------------------------

def test_teacher_oracle_replays_ns(running_example, sp):
    seq = build_ns(running_example)
    oracle = TeacherOracle(seq)
    cache = oracle.new_cache()
    items = [SpeechSpan(0, running_example.frames[:8]), text(sp.sos)]
    logits = oracle.forward(cache, items)
    hyp = []
    while True:
        t = int(np.argmax(logits))
        if t in (sp.pad, sp.eos):
            break
        hyp.append(t)
        logits = oracle.forward(cache, [text(t)])
    assert hyp == running_example.tokens


def test_one_hot_windows_are_read_only_one_hot_rows():
    """Every window of the shared vector is the row a fresh ``np.full``
    with one 0 would be; a token outside the vocabulary raises and no
    window can be written through."""
    for v in range(4, 65):
        rows = _one_hot_rows(v)
        for t in range(v):
            want = np.full(v, -30.0)
            want[t] = 0.0
            got = _one_hot_logits(rows, t)
            assert np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[t] = 1.0
        for t in (-v, -1, v, v + 3):
            with pytest.raises(IndexError):
                _one_hot_logits(rows, t)


def test_replay_oracles_share_one_reply_table(edge_example, running_example,
                                             monkeypatch):
    """Two binds of one suite and a teacher of the same vocabulary hold one
    table, built with the suite. Every ``forward`` replies with a
    read-only window of it equal to ``_one_hot_logits``, and a reply
    outside the vocabulary raises ``IndexError``, a negative one too."""
    suite = make_boundary_oracle([edge_example, running_example], 1)
    oracles = [suite.bind(edge_example, "cs"), suite.bind(running_example, "ss"),
               TeacherOracle(build_ss(running_example, ChunkingConfig(4)))]
    rows = oracles[0]._rows
    assert all(o._rows is rows and o._windows is oracles[0]._windows
               for o in oracles)
    assert np.array_equal(rows, _one_hot_rows(32))
    small = TeacherOracle(build_ns(running_example), vocab_size=16)
    assert small._rows is not rows and len(small._windows) == 16
    for oracle in oracles:
        for t in range(32):
            monkeypatch.setattr(oracle, "_reply", lambda cache, t=t: t)
            got = oracle.forward(oracle.new_cache(), [text(4)])
            assert got.base is rows and not got.flags.writeable
            assert np.array_equal(got, _one_hot_logits(rows, t))
        for t in (-1, 32):
            monkeypatch.setattr(oracle, "_reply", lambda cache, t=t: t)
            with pytest.raises(IndexError, match="outside a vocabulary"):
                oracle.forward(oracle.new_cache(), [text(4)])


def test_confusable_map_never_identity(sp):
    confuse = default_confusable_map(16)
    for t in range(sp.first_text_id, 16):
        ct = confuse(t)
        assert ct != t
        assert sp.first_text_id <= ct < 16


@pytest.mark.parametrize("old_call", [
    lambda u, seq, sp: TeacherOracle(seq, sp, 32),
    lambda u, seq, sp: TeacherOracle(seq, sp),
    lambda u, seq, sp: SymbolicCache(sp),
    lambda u, seq, sp: default_confusable_map(sp, 32),
    lambda u, seq, sp: BoundaryOracle(u, "ss", sp, 32, 1),
], ids=["teacher", "teacher-no-vocab", "symbolic-cache", "confusable-map",
        "boundary"])
def test_an_old_positional_sp_raises(running_example, chunk4, sp, old_call):
    """The reserved ids are constants: a call written for the signatures
    that took them raises instead of binding ``sp`` to another parameter."""
    with pytest.raises(TypeError):
        old_call(running_example, build_ss(running_example, chunk4), sp)


def test_boundary_oracle_confuses_edge_token(edge_example, sp):
    suite = make_boundary_oracle([edge_example], confusion_window=1, vocab_size=32)
    oracle = suite.bind("edge", "ss")
    confuse = default_confusable_map(32)
    cache = oracle.new_cache()
    # token 13 ends at frame 3; with context up to frame 3 it reads confused
    frames = [SpeechSpan(0, edge_example.frames[:4])]
    logits = oracle.forward(cache, frames)
    assert int(np.argmax(logits)) == confuse(13)
    # one more frame of context resolves it
    cache2 = oracle.new_cache()
    frames5 = [SpeechSpan(0, edge_example.frames[:5])]
    assert int(np.argmax(oracle.forward(cache2, frames5))) == 13


def test_boundary_oracle_window_zero_is_perfect(edge_example):
    suite = make_boundary_oracle([edge_example], confusion_window=0, vocab_size=32)
    oracle = suite.bind("edge", "ss")
    cache = oracle.new_cache()
    frames = [SpeechSpan(0, edge_example.frames[:4])]
    assert int(np.argmax(oracle.forward(cache, frames))) == 13


def test_boundary_oracle_stop_tokens(edge_example, sp):
    suite = make_boundary_oracle([edge_example], confusion_window=0, vocab_size=32)
    for paradigm, done_stop, wait_stop in (
        ("ns", sp.eos, sp.eos),
        ("ss", sp.eos, sp.pad),
        ("cs", sp.pad, sp.pad),
    ):
        oracle = suite.bind("edge", paradigm)
        cache = oracle.new_cache()
        items = [SpeechSpan(0, edge_example.frames[:8]),
                 text(13), text(20)]
        logits = oracle.forward(cache, items)
        assert int(np.argmax(logits)) == done_stop
        # before any audio, nothing is audible yet
        fresh = oracle.new_cache()
        logits = oracle.forward(fresh, [text(sp.pad)])
        assert int(np.argmax(logits)) == wait_stop


def test_replay_oracles_share_one_base_and_one_factory(edge_example):
    from streamasr.model import BoundaryOracle, BoundaryOracleSuite

    assert make_boundary_oracle is BoundaryOracleSuite
    for oracle in (TeacherOracle, BoundaryOracle):
        assert "forward" not in vars(oracle)
        assert "new_cache" not in vars(oracle)
    with pytest.raises(ValueError, match="window must be >= 0"):
        make_boundary_oracle([edge_example], confusion_window=-1)
