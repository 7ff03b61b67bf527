"""Every logits row a session reads, checked against a from-scratch
forward of the rows that row sees.

The shadow wraps a model and its caches from outside. Each cache keeps
the items of its rows, one per position, through forwards, rollbacks,
compactions and copies, and every logits row that ``forward`` or
``forward_tree`` returns is compared with a fresh forward of the row's
visible path: the toy decoder's ``forward_sequence`` to rtol 1e-9, or a
replay oracle's reply on a fresh symbolic cache, exactly. The engine and
the caches know nothing of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamasr.corpus import CorpusConfig, gen_synthetic_corpus
from streamasr.engine import (
    PARADIGM_OF,
    STRATEGIES,
    StrategyConfig,
    push_chunk,
    session_new,
)
from streamasr.layout import ChunkingConfig, chunk_bounds
from streamasr.model import (
    KVCache,
    ModelConfig,
    SpeechSpan,
    SymbolicCache,
    ToyDecoder,
    make_boundary_oracle,
)


class _Items:
    """A cache that also keeps one item per row in ``items``."""

    def _truncate(self, n):
        super()._truncate(n)
        del self.items[n:]

    def _move(self, root, rows):
        super()._move(root, rows)
        self.items[root:root + len(rows)] = [self.items[r] for r in rows]

    def branch(self):
        other = super().branch()
        other.__class__, other.items = type(self), list(self.items)
        return other


class _ItemsKV(_Items, KVCache):
    pass


class _ItemsSymbolic(_Items, SymbolicCache):
    pass


def _per_position(items):
    """One item per position: a span becomes its one-frame spans."""
    return [SpeechSpan(it.start + i, it.frames[i:i + 1])
            if isinstance(it, SpeechSpan) else it
            for it in items for i in range(len(it))]


class Shadow:
    """``model`` with every logits row it returns checked; ``rows`` counts
    the rows checked."""

    def __init__(self, model):
        self.model, self.rows = model, 0
        self.vocab_size = model.vocab_size

    def new_cache(self):
        cache = self.model.new_cache()
        kind = _ItemsKV if isinstance(cache, KVCache) else _ItemsSymbolic
        cache.__class__, cache.items = kind, []
        return cache

    def _check(self, visible, row):
        self.rows += 1
        if isinstance(self.model, ToyDecoder):
            want = self.model.forward_sequence(visible)[-1]
            assert np.allclose(row, want, rtol=1e-9, atol=0), \
                np.abs(row - want).max()
        else:
            want = self.model.forward(self.model.new_cache(), visible)
            assert np.array_equal(row, want)

    def forward(self, cache, items):
        logits = self.model.forward(cache, items)
        cache.items += _per_position(items)
        self._check(cache.items, logits)
        return logits

    def forward_tree(self, cache, root, items, paths):
        rows = self.model.forward_tree(cache, root, items, paths)
        for item, path, row in zip(items, paths, rows):
            self._check(cache.items[:root] + [cache.items[r] for r in path]
                        + [item], row)
        cache.items += items
        return rows


@pytest.mark.parametrize("name", STRATEGIES)
@settings(max_examples=12, deadline=None, database=None)
@given(kind=st.sampled_from(["toy", "boundary"]), seed=st.integers(0, 1000),
       depth=st.integers(0, 2), chunk_frames=st.integers(2, 8),
       cut=st.integers(0, 20), audio_less=st.booleans())
def test_every_row_a_session_reads_is_a_fresh_forward_of_its_path(
        name, kind, seed, depth, chunk_frames, cut, audio_less):
    """A stream on a tiny random toy decoder or on ``boundary:1``, forked
    mid-stream, both copies closed by the rest of the audio, then an
    audio-less final chunk or not: every logits row either session reads
    equals a fresh forward of the rows it sees."""
    u = gen_synthetic_corpus(CorpusConfig(
        num_utterances=1, min_tokens=2, max_tokens=8, seed=seed))[0]
    if kind == "toy":
        inner = ToyDecoder(ModelConfig(
            embed_dim=8, num_layers=depth, num_heads=2, ffn_dim=8,
            adapter_hidden=4, max_context=1024, seed=seed))
    else:
        inner = make_boundary_oracle([u], 1).bind(u, PARADIGM_OF[name])
    model = Shadow(inner)
    strategy = StrategyConfig(
        name, beam_width=3 if name.endswith("_beam") else 1,
        max_decode_per_turn=6)
    sessions = [session_new(model, ChunkingConfig(chunk_frames), strategy)]
    bounds = chunk_bounds(u.num_frames, chunk_frames)
    for k, (lo, hi) in enumerate(bounds):
        if k == cut % len(bounds):
            sessions.append(sessions[0].fork())
        for s in sessions:
            push_chunk(s, u.frames[lo:hi],
                       is_last=hi == u.num_frames and not audio_less)
    for s in sessions:
        if audio_less:
            push_chunk(s, u.frames[:0], is_last=True)
        assert len(s.cache.items) == len(s.cache)
    assert model.rows >= len(bounds)
