"""Streaming sessions: turn traces, record lifecycle, accounting, guards."""

import copy
import dataclasses
import struct
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from streamasr import engine
from streamasr.corpus import (
    EOS,
    PAD,
    CorpusConfig,
    TokenAlignment,
    Utterance,
    gen_synthetic_corpus,
)
from streamasr.engine import (
    PARADIGM_OF,
    STRATEGIES,
    ConfigMismatch,
    PushAfterFinish,
    StrategyConfig,
    _greedy,
    final_hypothesis,
    push_chunk,
    run_stream,
    session_new,
)
from streamasr.layout import (
    ChunkingConfig,
    SpecialTokens,
    build_cs,
    build_ns,
    build_ss,
    chunk_bounds,
    speech,
    text,
)
from streamasr.model import (
    ContextOverflow,
    ImmutabilityViolation,
    KVCache,
    ModelConfig,
    SpeechSpan,
    TeacherOracle,
    ToyDecoder,
    _log_softmax,
    _one_hot_logits,
    _one_hot_rows,
    _ReplayOracle,
    default_confusable_map,
    make_boundary_oracle,
)

SP = SpecialTokens()


def _positions(items):
    """One ``Position`` per position the items stand for."""
    return [p for it in items for p in (
        [speech(it.start + i) for i in range(len(it))]
        if isinstance(it, SpeechSpan) else [it])]


class Scripted(_ReplayOracle):
    """One-hot model keyed on (real token count, newest frame index), a
    replay oracle, so it grows beam trees too.

    Lets a test pin down stop behavior the corpus oracles never produce,
    like mid-stream eos or a retracting re-decode.
    """

    vocab_size = 16

    def __init__(self, table, default=SP.pad):
        super().__init__(self.vocab_size)
        self.table = dict(table)
        self.default = default

    def _reply(self, cache):
        return self.table.get((cache.real_count, cache.max_frame), self.default)


def _frames(n, dim=8):
    return np.zeros((n, dim))


# -----------------------------
# construction guards
# -----------------------------

def test_session_new_validation(chunk4):
    """A strategy is checked as it is built and cannot change after;
    ``session_new`` checks the model."""
    for kw, message in (
            ({"name": "nope"}, "unknown strategy 'nope'"),
            ({"name": "ss_beam", "beam_width": 0}, "beam_width must be >= 1"),
            ({"name": "ss_greedy", "beam_width": 2}, "does not use a beam"),
            ({"name": "ns_redecode_hold_n", "hold_n": -1}, "hold_n must be"),
            ({"name": "ns_redecode_wait_k", "wait_k": -1}, "wait_k must be"),
            ({"name": "ss_greedy", "max_decode_per_turn": 0},
             "max_decode_per_turn must be >= 1")):
        with pytest.raises(ConfigMismatch, match=message):
            StrategyConfig(**kw)
    ok = StrategyConfig("ss_greedy")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ok.max_decode_per_turn = 0
    with pytest.raises(ConfigMismatch):
        session_new(object(), chunk4, ok)
    assert session_new(Scripted({}), chunk4, ok).finished is False


def test_new_session_stats_zero(chunk4):
    s = session_new(Scripted({}), chunk4, StrategyConfig("ss_greedy"), SP)
    st = s.stats
    assert (st.turns, st.forward_positions, st.rollback_count,
            st.revised, st.retracted, st.early_eos) == (0, 0, 0, 0, 0, 0)
    assert s.turns == []


def test_push_after_finish(chunk4):
    s = session_new(Scripted({}), chunk4, StrategyConfig("ss_greedy"), SP)
    push_chunk(s, _frames(4), is_last=True)
    with pytest.raises(PushAfterFinish):
        push_chunk(s, _frames(4), is_last=True)


def test_frames_must_be_matrix(chunk4):
    s = session_new(Scripted({}), chunk4, StrategyConfig("ss_greedy"), SP)
    with pytest.raises(ValueError):
        push_chunk(s, np.zeros(4), is_last=True)


@pytest.mark.parametrize("name", ["ss_greedy", "cs_fallback_greedy",
                                  "ns_redecode_hold_n"])
def test_rows_without_columns_are_rejected(name, chunk4):
    # four frames of width 0 are not an audio-less chunk; zero rows are
    s = session_new(Scripted({}), chunk4, StrategyConfig(name), SP)
    with pytest.raises(ValueError, match="frame_dim >= 1"):
        push_chunk(s, np.zeros((4, 0)), is_last=True)
    assert s.turns == [] and not s.finished
    push_chunk(s, np.zeros((0, 0)), is_last=True)
    assert s.finished and s.turns[0].frames == (0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", STRATEGIES)
def test_a_non_finite_frame_raises_on_the_toy(name, bad):
    """A NaN or infinite frame raises in the toy's forward before it
    appends anything, on a stream's first chunk and on a later one; it used
    to reach the logits and decode an empty hypothesis without a word."""
    width = 3 if name.endswith("_beam") else 1
    model = ToyDecoder(ModelConfig())
    frames = _frames(4)
    frames[1, 2] = bad
    for good_chunks in (0, 1):
        s = session_new(model, ChunkingConfig(4),
                        StrategyConfig(name, beam_width=width), SP)
        for _ in range(good_chunks):
            push_chunk(s, _frames(4))
        cached = len(s.cache)
        with pytest.raises(ValueError, match="frames must be finite"):
            push_chunk(s, frames, is_last=True)
        # a context-aware turn has rewound, a re-decoding one emptied the cache
        assert len(s.cache) <= cached
        assert s.turns[-1].prefill == 0


@pytest.mark.parametrize("name", ["ns_redecode_hold_n",
                                  "ns_redecode_local_agreement",
                                  "ns_redecode_wait_k", "cs_fallback_greedy"])
def test_a_failed_chunk_does_not_fail_the_next_one(name):
    """A chunk whose forward raises leaves nothing behind that the next
    turn forwards: after a NaN in the first chunk, a clean chunk decodes,
    and a re-decoding turn prefills only the clean chunk and ``SOS``."""
    s = session_new(ToyDecoder(ModelConfig()), ChunkingConfig(4),
                    StrategyConfig(name))
    bad = _frames(4)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="frames must be finite"):
        push_chunk(s, bad)
    push_chunk(s, _frames(4))
    assert s.turns[-1].frames == (4, 8)
    if PARADIGM_OF[name] == "ns":
        assert s.turns[-1].prefill == 4 + 1
        assert [(sp_.start, len(sp_)) for sp_ in s.ns_items] == [(4, 4)]
    else:
        assert s.turns[-1].prefill > 0


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("name", STRATEGIES)
def test_final_turn_stops_at_the_cap(name, cap):
    # a model that never stops, one 8-frame chunk (4 slots): the cap binds
    # before, at or after the slot budget, and the final flush honours it
    width = 3 if name.endswith("_beam") else 1
    s = session_new(Scripted({}, default=10), ChunkingConfig(8),
                    StrategyConfig(name, beam_width=width,
                                   max_decode_per_turn=cap), SP)
    records = push_chunk(s, _frames(8), is_last=True)
    assert [r.token for r in records] == [10] * cap


def test_fork_validates_the_new_strategy(chunk4):
    s = session_new(Scripted({}), chunk4, StrategyConfig("ss_greedy"), SP)
    assert s.fork(StrategyConfig("ss_beam", beam_width=2)).strategy.beam_width == 2
    with pytest.raises(ConfigMismatch):
        s.fork(StrategyConfig("cs_fallback_greedy"))


@pytest.mark.parametrize("kind", ["boundary", "toy"])
@pytest.mark.parametrize("name", STRATEGIES)
def test_fork_replays_the_rest_of_the_stream(name, kind, sp):
    u = gen_synthetic_corpus(CorpusConfig(num_utterances=1, seed=3))[0]
    if kind == "toy":
        model = ToyDecoder(ModelConfig(embed_dim=16, num_layers=1, num_heads=2,
                                       ffn_dim=16, max_context=512, seed=1))
    else:
        suite = make_boundary_oracle([u], confusion_window=1, vocab_size=32)
        model = suite.bind(u, PARADIGM_OF[name])
    width = 3 if name.endswith("_beam") else 1
    strategy = StrategyConfig(name, beam_width=width, max_decode_per_turn=24)
    ck = ChunkingConfig(8)
    bounds = chunk_bounds(u.num_frames, ck.chunk_frames)
    for cut in range(len(bounds) + 1):
        a = session_new(model, ck, strategy, sp)
        for lo, hi in bounds[:cut]:
            push_chunk(a, u.frames[lo:hi])
        b = a.fork()
        assert b.model is a.model
        # the rest of the stream, closed by an audio-less final chunk
        for s in (a, b):
            for lo, hi in bounds[cut:]:
                push_chunk(s, u.frames[lo:hi])
            push_chunk(s, np.zeros((0, u.frames.shape[1])), is_last=True)
        assert b.records == a.records
        assert final_hypothesis(b) == final_hypothesis(a)
        assert (asdict(b.stats), b.turns) == (asdict(a.stats), a.turns)


class _Counting:
    """A model seen through the bare contract and the beam's tree step,
    counting forwarded positions and logging each call's items; ``trees``
    indexes the calls that were tree steps."""

    def __init__(self, model):
        self.model, self.vocab_size, self.positions = model, model.vocab_size, 0
        self.calls, self.trees = [], set()

    def new_cache(self):
        return self.model.new_cache()

    def forward(self, cache, items):
        self.positions += sum(map(len, items))
        self.calls.append(list(items))
        return self.model.forward(cache, items)

    def forward_tree(self, cache, root, items, paths):
        self.trees.add(len(self.calls))
        self.positions += len(items)
        self.calls.append(list(items))
        return self.model.forward_tree(cache, root, items, paths)


_SMALL_TOY = ToyDecoder(ModelConfig(embed_dim=16, num_layers=1, num_heads=2,
                                    ffn_dim=16, max_context=4096, seed=2))


def _assert_folded(s):
    """Every counter is its fold over ``s.turns``, and every record index
    is emitted by exactly the turn its ``emit_chunk`` names."""
    turns, st_ = s.turns, s.stats
    assert (st_.turns, st_.prefill_positions, st_.decode_positions) == (
        len(turns), sum(t.prefill for t in turns), sum(t.decode for t in turns))
    assert st_.forward_positions == st_.prefill_positions + st_.decode_positions
    assert st_.cache_reused_positions == sum(t.reused for t in turns)
    rewinds = [t.rolled_back for t in turns if t.rolled_back is not None]
    assert (st_.rollback_count, st_.rollback_positions) == (
        len(rewinds), sum(rewinds))
    assert st_.checksum_checks == sum(t.checksum_verified for t in turns)
    assert st_.revised == sum(len(t.revised) for t in turns)
    assert st_.retracted == sum(len(t.retracted) for t in turns)
    assert st_.early_eos == sum(t.stop == SP.eos and not t.is_last
                                for t in turns)
    assert [i for t in turns for i in t.emitted] == list(range(len(s.records)))
    for k, t in enumerate(turns):
        assert all(s.records[i].emit_chunk == k for i in t.emitted)
        assert all(s.records[i].revised for i in t.revised)
        assert all(s.records[i].retracted for i in t.retracted)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(STRATEGIES), kind=st.sampled_from(["toy", "boundary"]),
       seed=st.integers(0, 10_000), max_tokens=st.integers(1, 10),
       chunk_frames=st.integers(1, 12), cut=st.integers(0, 63))
def test_stats_are_folds_of_the_turn_records(name, kind, seed, max_tokens,
                                             chunk_frames, cut):
    """On generated corpora: each stats counter equals its fold over the
    turn records and the model's own position count, at most one record is
    pending and it is the newest, and a mid-stream fork continues to the
    same stats."""
    u = gen_synthetic_corpus(CorpusConfig(
        num_utterances=1, min_tokens=1, max_tokens=max_tokens, seed=seed))[0]
    model = (_SMALL_TOY if kind == "toy" else make_boundary_oracle(
        [u], confusion_window=1).bind(u, PARADIGM_OF[name]))
    width = 3 if name.endswith("_beam") else 1
    strategy = StrategyConfig(name, beam_width=width, max_decode_per_turn=12)
    ck = ChunkingConfig(chunk_frames)
    bounds = chunk_bounds(u.num_frames, chunk_frames)
    counting = _Counting(model)
    a = session_new(counting, ck, strategy, SP)
    b = session_new(model, ck, strategy, SP)
    fork = None
    for k, (lo, hi) in enumerate(bounds):
        is_last = hi == u.num_frames
        if k == cut % len(bounds):
            fork = b.fork()
        for s in filter(None, (a, b, fork)):
            push_chunk(s, u.frames[lo:hi], is_last=is_last)
        pending = [i for i, r in enumerate(a.records)
                   if r.finalize_chunk is None]
        assert pending in ([], [len(a.records) - 1])
        assert not (pending and is_last)
    _assert_folded(a)
    assert a.stats.forward_positions == counting.positions
    assert a.records == b.records == fork.records
    assert (asdict(fork.stats), fork.turns) == (asdict(b.stats), b.turns)
    assert asdict(a.stats) == asdict(b.stats)


@st.composite
def _aligned_utterances(draw):
    tokens, alignments = [], []
    frame = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 10))):
        tok = draw(st.integers(SP.first_text_id, 31))
        length = draw(st.integers(1, 5))
        tokens.append(tok)
        alignments.append(TokenAlignment(tok, frame, frame + length - 1))
        frame += length + draw(st.integers(0, 3))
    total = alignments[-1].end_frame + 1 + draw(st.integers(0, 6))
    return Utterance("u", tokens, alignments, np.zeros((total, 4)))


@settings(max_examples=150, deadline=None)
@given(u=_aligned_utterances(), chunk_frames=st.integers(1, 12),
       ratio=st.integers(1, 4))
def test_teacher_decoding_regenerates_the_layout(u, chunk_frames, ratio):
    ck = ChunkingConfig(chunk_frames, ratio)
    for build, name in ((build_ss, "ss_greedy"),
                        (build_cs, "cs_fallback_greedy")):
        seq = build(u, ck, SP)
        s = session_new(TeacherOracle(seq), ck, StrategyConfig(name), SP)
        assert run_stream(s, u.frames) == u.tokens
        assert (list(zip(s.cache.kinds.decode(), s.cache.values))
                == [(p.kind, p.value) for p in seq.positions])


@st.composite
def _resplit_streams(draw):
    """An utterance, a chunk size and a random cut of its frames into
    pieces of 1..chunk_frames frames."""
    u = draw(_aligned_utterances())
    chunk_frames = draw(st.integers(1, 30))
    pieces, lo = [], 0
    while lo < u.num_frames:
        hi = min(u.num_frames, lo + draw(st.integers(1, chunk_frames)))
        pieces.append((lo, hi))
        lo = hi
    return u, chunk_frames, pieces


@settings(max_examples=100, deadline=None)
@given(stream=_resplit_streams())
def test_resplit_stream_recovers_the_reference(stream):
    """However the frames are cut into chunks: an exact boundary oracle
    gives every strategy the reference, and with confusion at the context
    edge the cs fallback strategies still repair it, given audio past the
    last token to repair it with."""
    u, chunk_frames, pieces = stream
    ck = ChunkingConfig(chunk_frames)
    cases = [(0, STRATEGIES)]
    if u.alignments[-1].end_frame < u.num_frames - 1:
        cases.append((1, ("cs_fallback_greedy", "cs_fallback_beam")))
    for window, names in cases:
        suite = make_boundary_oracle([u], confusion_window=window)
        for name in names:
            width = 3 if name.endswith("_beam") else 1
            s = session_new(suite.bind(u, PARADIGM_OF[name]), ck,
                            StrategyConfig(name, beam_width=width), SP)
            for lo, hi in pieces:
                push_chunk(s, u.frames[lo:hi], is_last=hi == u.num_frames)
            assert final_hypothesis(s) == u.tokens, (name, window)


# -----------------------------
# teacher traces on the running example
# -----------------------------

def test_ss_teacher_trace(running_example, chunk4, sp):
    seq = build_ss(running_example, chunk4)
    model = TeacherOracle(seq)
    s = session_new(model, chunk4, StrategyConfig("ss_greedy"), sp)
    r0 = push_chunk(s, running_example.frames[:4])
    r1 = push_chunk(s, running_example.frames[4:], is_last=True)
    assert [r.token for r in r0] == [10]
    assert [r.token for r in r1] == [11, 12]
    assert final_hypothesis(s) == [10, 11, 12]
    assert [r.emit_chunk for r in s.records] == [0, 1, 1]
    # ss emissions are final on arrival
    assert all(not r.provisional and r.finalize_chunk == r.emit_chunk
               for r in s.records)
    # the session walks exactly the training layout, position for position
    assert s.stats.forward_positions == len(seq)


def test_cs_teacher_trace(running_example, chunk4, sp):
    seq = build_cs(running_example, chunk4)
    model = TeacherOracle(seq)
    s = session_new(model, chunk4, StrategyConfig("cs_fallback_greedy"), sp)
    r0 = push_chunk(s, running_example.frames[:4])
    assert [r.token for r in r0] == [10]
    assert r0[0].provisional and r0[0].finalize_chunk is None
    r1 = push_chunk(s, running_example.frames[4:], is_last=True)
    # turn 2 confirms A then emits the rest
    assert r1[0] is r0[0]
    assert r1[0].finalize_chunk == 1 and not r1[0].revised
    assert final_hypothesis(s) == [10, 11, 12]
    st = s.stats
    assert st.rollback_count == 1 and st.checksum_checks == 1
    assert st.revised == 0 and st.retracted == 0
    # total work = the training layout plus the re-decoded slot span
    assert st.forward_positions == len(seq) + st.rollback_positions


def test_two_sessions_share_model(running_example, chunk4, sp):
    seq = build_ss(running_example, chunk4)
    model = TeacherOracle(seq)
    a = session_new(model, chunk4, StrategyConfig("ss_greedy"), sp)
    b = session_new(model, chunk4, StrategyConfig("ss_greedy"), sp)
    push_chunk(a, running_example.frames[:4])
    push_chunk(b, running_example.frames[:4])
    push_chunk(b, running_example.frames[4:], is_last=True)
    push_chunk(a, running_example.frames[4:], is_last=True)
    assert final_hypothesis(a) == final_hypothesis(b) == [10, 11, 12]


# -----------------------------
# boundary ambiguity and the fallback lifecycle
# -----------------------------

def test_ss_commits_the_confused_token(edge_example, chunk4, sp):
    suite = make_boundary_oracle([edge_example], confusion_window=1, vocab_size=32)
    confuse = default_confusable_map(32)
    s = session_new(suite.bind("edge", "ss"), chunk4,
                    StrategyConfig("ss_greedy"), sp)
    hyp = run_stream(s, edge_example.frames)
    assert hyp == [confuse(13), 20]  # the edge token stays wrong


def test_cs_fallback_revises_the_confused_token(edge_example, chunk4, sp):
    suite = make_boundary_oracle([edge_example], confusion_window=1, vocab_size=32)
    confuse = default_confusable_map(32)
    s = session_new(suite.bind("edge", "cs"), chunk4,
                    StrategyConfig("cs_fallback_greedy"), sp)
    hyp = run_stream(s, edge_example.frames)
    assert hyp == [13, 20]
    rec = s.records[0]
    assert rec.first_token == confuse(13)
    assert rec.revised and rec.retracted_value == confuse(13)
    assert rec.emit_chunk == 0 and rec.finalize_chunk == 1
    assert s.stats.revised == 1


def test_confirmed_token_has_no_retracted_value(running_example, chunk4, sp):
    model = TeacherOracle(build_cs(running_example, chunk4))
    s = session_new(model, chunk4, StrategyConfig("cs_fallback_greedy"), sp)
    run_stream(s, running_example.frames)
    assert all(r.retracted_value is None for r in s.records)


def test_retraction_when_redecode_drops_the_token(chunk4):
    # turn 1 hallucinates token 10 at the edge; the re-decode with more
    # audio drops it entirely
    model = Scripted({(0, 3): 10})
    s = session_new(model, chunk4, StrategyConfig("cs_fallback_greedy"), SP)
    r0 = push_chunk(s, _frames(4))
    assert [r.token for r in r0] == [10] and r0[0].provisional
    push_chunk(s, _frames(4), is_last=True)
    rec = s.records[0]
    assert rec.retracted and not rec.revised
    assert final_hypothesis(s) == []
    assert s.stats.retracted == 1


def test_a_reopened_provisional_record_counts_each_revision(chunk4):
    # turn 0 emits 10; turn 1's only token re-decodes it as 11, which
    # reopens it; the final turn revises it again to 12
    model = Scripted({(0, 3): 10, (0, 7): 11, (0, 11): 12})
    s = session_new(model, chunk4, StrategyConfig("cs_fallback_greedy"), SP)
    push_chunk(s, _frames(4))
    r1 = push_chunk(s, _frames(4))
    assert r1 == [s.records[0]] and r1[0].provisional
    assert r1[0].finalize_chunk is None and r1[0].token == 11
    push_chunk(s, _frames(4), is_last=True)
    assert len(s.records) == 1
    rec = s.records[0]
    assert (rec.first_token, rec.token, rec.finalize_chunk) == (10, 12, 2)
    assert rec.revised and rec.retracted_value == 10  # flagged once
    assert [t.revised for t in s.turns] == [(), (0,), (0,)]
    assert [t.emitted for t in s.turns] == [(0,), (), ()]
    assert s.stats.revised == 2 and s.stats.retracted == 0
    assert final_hypothesis(s) == [12]


def test_early_eos_is_flagged(chunk4):
    # eos right after the first emission, two chunks before the stream ends
    model = Scripted({(0, 3): 10, (1, 3): SP.eos, (1, 7): 11, (2, 7): 12})
    s = session_new(model, chunk4, StrategyConfig("ss_greedy"), SP)
    push_chunk(s, _frames(4))
    assert s.stats.early_eos == 1
    push_chunk(s, _frames(4), is_last=True)
    assert s.stats.early_eos == 1
    assert final_hypothesis(s) == [10, 11, 12]


# -----------------------------
# degenerate streams
# -----------------------------

def test_zero_frame_stream_flush_only(chunk4):
    for name in ("ss_greedy", "cs_fallback_greedy", "ns_redecode_hold_n"):
        s = session_new(Scripted({}), chunk4, StrategyConfig(name), SP)
        assert run_stream(s, np.zeros((0, 8))) == []
        assert s.finished and s.stats.turns == 1


def test_cs_empty_final_chunk_flushes_pending(edge_example, chunk4, sp):
    suite = make_boundary_oracle([edge_example], confusion_window=1, vocab_size=32)

    def session():
        return session_new(suite.bind("edge", "cs"), chunk4,
                           StrategyConfig("cs_fallback_greedy"), sp)

    normal = session()
    hyp_a = run_stream(normal, edge_example.frames)
    split = session()
    push_chunk(split, edge_example.frames[:4])
    push_chunk(split, edge_example.frames[4:])        # not marked last
    push_chunk(split, np.zeros((0, 8)), is_last=True)  # flush-only turn
    hyp_b = final_hypothesis(split)
    assert hyp_a == hyp_b == [13, 20]


@pytest.mark.parametrize("name", ["ss_greedy", "cs_fallback_greedy"])
@pytest.mark.parametrize("idle", [1, 2])
def test_audio_less_turns_before_the_flush_change_nothing(
        edge_example, chunk4, sp, name, idle):
    # a turn with nothing to prefill decodes from the logits the last turn
    # left, so idle turns neither drop nor re-decode the pending token
    suite = make_boundary_oracle([edge_example], confusion_window=1,
                                 vocab_size=32)
    s = session_new(suite.bind("edge", PARADIGM_OF[name]), chunk4,
                    StrategyConfig(name), sp)
    push_chunk(s, edge_example.frames)
    for _ in range(idle):
        push_chunk(s, np.zeros((0, 8)))
    push_chunk(s, np.zeros((0, 8)), is_last=True)
    ref = session_new(suite.bind("edge", PARADIGM_OF[name]), chunk4,
                      StrategyConfig(name), sp)
    push_chunk(ref, edge_example.frames)
    push_chunk(ref, np.zeros((0, 8)), is_last=True)
    assert final_hypothesis(s) == final_hypothesis(ref)
    assert not any(r.retracted for r in s.records)
    assert s.stats.forward_positions == ref.stats.forward_positions


def test_run_stream_equals_manual_pushes(edge_example, chunk4, sp):
    suite = make_boundary_oracle([edge_example], confusion_window=1, vocab_size=32)
    a = session_new(suite.bind("edge", "cs"), chunk4,
                    StrategyConfig("cs_fallback_greedy"), sp)
    hyp = run_stream(a, edge_example.frames)
    b = session_new(suite.bind("edge", "cs"), chunk4,
                    StrategyConfig("cs_fallback_greedy"), sp)
    push_chunk(b, edge_example.frames[:4])
    push_chunk(b, edge_example.frames[4:], is_last=True)
    assert hyp == final_hypothesis(b)
    assert a.stats.forward_positions == b.stats.forward_positions


# -----------------------------
# accounting
# -----------------------------

def test_cache_reuse_counts_prior_context(running_example, chunk4, sp):
    model = TeacherOracle(build_ss(running_example, chunk4))
    s = session_new(model, chunk4, StrategyConfig("ss_greedy"), sp)
    push_chunk(s, running_example.frames[:4])
    reused_at_entry = len(s.cache)
    push_chunk(s, running_example.frames[4:], is_last=True)
    assert s.stats.cache_reused_positions == reused_at_entry


def test_per_turn_accounting_sums_to_totals(edge_example, chunk4, sp):
    suite = make_boundary_oracle([edge_example], confusion_window=1, vocab_size=32)
    s = session_new(suite.bind("edge", "cs"), chunk4,
                    StrategyConfig("cs_fallback_greedy"), sp)
    run_stream(s, edge_example.frames)
    st = s.stats
    assert len(s.turns) == st.turns
    assert sum(t.prefill for t in s.turns) == st.prefill_positions
    assert sum(t.decode for t in s.turns) == st.decode_positions
    assert st.prefill_positions + st.decode_positions == st.forward_positions


def test_cs_boundary_errors_are_the_final_tokens_inside_the_window(sp):
    """The boundary oracle confuses a token followed by fewer than
    ``window`` frames of context. Fallback re-decoding heals every such
    token mid-stream, so up to window 3 (the shortest token's frames) cs
    errs only on an utterance whose final token ends after frame
    ``num_frames - 1 - window``: no later audio comes to heal it. Windows 0
    and 1 read 0, and 2 and 3 do not, at every chunk size."""
    utts = gen_synthetic_corpus(CorpusConfig(num_utterances=24, seed=0))
    counts = []
    for w in range(4):
        suite = make_boundary_oracle(utts, confusion_window=w)
        analytic = sum(u.alignments[-1].end_frame > u.num_frames - 1 - w
                       for u in utts)
        for n in (4, 8, 25):
            errors = 0
            for u in utts:
                s = session_new(suite.bind(u, "cs"), ChunkingConfig(n),
                                StrategyConfig("cs_fallback_greedy"), sp)
                hyp = run_stream(s, u.frames)
                assert len(hyp) == len(u.tokens)
                errors += sum(a != b for a, b in zip(hyp, u.tokens))
            assert errors == analytic, (w, n)
        counts.append(analytic)
    assert counts[:2] == [0, 0] and 0 < counts[2] < counts[3] == len(utts)


# -----------------------------
# beam strategies
# -----------------------------

def _turn_outcomes(s):
    return [(t.tokens, t.stop, t.emitted, t.revised, t.retracted)
            for t in s.turns]


# the toy decoder at depth 0 and at the benchmark's shape
_BEAM_ONE_TOYS = (
    ModelConfig(vocab_size=32, embed_dim=16, num_layers=0, num_heads=2,
                ffn_dim=32, max_context=2048, seed=3),
    ModelConfig(vocab_size=32, embed_dim=64, num_layers=4, num_heads=4,
                ffn_dim=128, max_context=2048, seed=0),
)


def test_beam_width_one_equals_greedy(chunk4, sp):
    """Width-1 beam search decodes what greedy does, turn for turn: the
    same hypothesis and records, and in every turn the same tokens, stop,
    and emitted, revised and retracted records. The oracle runs 4-frame
    chunks with the default cap; the toys run chunks of 2, 5 and 8 frames
    with caps of 2 and 24."""
    utts = gen_synthetic_corpus(CorpusConfig(num_utterances=4, seed=2))
    suite = make_boundary_oracle(utts, confusion_window=1)
    runs = [(lambda u, p: suite.bind(u.id, p), chunk4, 256)]
    for toy in map(ToyDecoder, _BEAM_ONE_TOYS):
        runs += [(lambda u, p, toy=toy: toy,
                  ChunkingConfig(n, speech_text_ratio=2), cap)
                 for n in (2, 5, 8) for cap in (2, 24)]
    for u in utts:
        for model_of, ck, cap in runs:
            for beam_name, greedy_name, paradigm in (
                ("ss_beam", "ss_greedy", "ss"),
                ("cs_fallback_beam", "cs_fallback_greedy", "cs"),
            ):
                a = session_new(model_of(u, paradigm), ck, StrategyConfig(
                    beam_name, beam_width=1, max_decode_per_turn=cap), sp)
                b = session_new(model_of(u, paradigm), ck, StrategyConfig(
                    greedy_name, max_decode_per_turn=cap), sp)
                assert run_stream(a, u.frames) == run_stream(b, u.frames)
                assert a.records == b.records
                assert _turn_outcomes(a) == _turn_outcomes(b)


def test_a_pruned_beam_child_allocates_no_rows(sp):
    """A beam step's children are rows of a token tree in the session
    cache: forwarding three of them over a 200-row cache, whose arrays have
    room for them, allocates less, at the peak, than one layer's keys of
    that cache, where a copy per child would take four such arrays. The
    rows below the tree never change."""
    cfg = ModelConfig(vocab_size=32, embed_dim=64, num_layers=2, num_heads=4,
                      ffn_dim=128, max_context=512, seed=0)
    toy = ToyDecoder(cfg)
    s = session_new(toy, ChunkingConfig(8), StrategyConfig(
        "cs_fallback_beam", beam_width=3), sp)
    s.turns.append(engine.TurnRecord((0, 200), False, 4))
    frames = np.random.default_rng(0).normal(size=(200, cfg.frame_dim))
    logits = toy.forward(s.cache, [SpeechSpan(0, frames)])
    logits[[PAD, EOS]] = -np.inf  # every expansion is a child
    sealed = s.cache.checksum()
    frontier = [engine._Hyp([], 0.0, logits)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        children = engine._beam_step(s, 200, frontier, [], limit=4)
        assert len(children) == 3 and s.turns[-1].decode == 3
        assert [h.rows for h in children] == [(200,), (201,), (202,)]
        del children
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 200 * cfg.embed_dim * 8
    assert s.cache.checksum(200) == sealed


def _beam_turn_over_100_rows(sp):
    """A cs_fallback_beam session on beam_toy's model shape whose cache
    holds 100 sealed speech rows, with the logits of the last one, in
    which pad and eos cannot win, so the beam's winner decodes tokens."""
    cfg = ModelConfig(vocab_size=32, embed_dim=64, num_layers=4, num_heads=4,
                      ffn_dim=128, max_context=2048, seed=0)
    toy = ToyDecoder(cfg)
    s = session_new(toy, ChunkingConfig(8, speech_text_ratio=2),
                    StrategyConfig("cs_fallback_beam", beam_width=3), sp)
    s.turns.append(engine.TurnRecord((0, 100), False, 4))
    frames = np.random.default_rng(1).normal(size=(100, cfg.frame_dim))
    logits = toy.forward(s.cache, [SpeechSpan(0, frames)])
    logits[[PAD, EOS]] = -np.inf
    s.cache.mark_chunk()
    return s, logits, 100 * cfg.embed_dim * 8 * 2 * cfg.num_layers


def test_a_beam_turn_allocates_less_than_one_prefix_copy(sp, monkeypatch):
    """A width-3 ``beam_turn_decode`` over 100 cached rows, its greedy
    rollout and its tree steps, makes no ``branch`` call and allocates less
    at its peak than one copy of those rows: every hypothesis is a path of
    rows in the session cache. The turn leaves the winner's rows alone
    above the mark, and the next turn's rewind cuts them and allocates
    under one layer's keys."""
    s, logits, prefix = _beam_turn_over_100_rows(sp)

    def no_branch(cache):
        raise AssertionError("a beam turn branched a cache")

    monkeypatch.setattr(KVCache, "branch", no_branch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        winner = engine.beam_turn_decode(s, logits, budget=4)
        peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        removed = s.cache.rewind()
        rewind_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert s.turns[-1].decode > 3 and 0 < removed <= len(winner.tokens)
    assert len(winner.rows) == removed
    assert peak < prefix
    assert rewind_peak < prefix / 8
    assert len(s.cache) == s.cache.mark == 100


@pytest.mark.parametrize("forked", [False, True])
@pytest.mark.parametrize("array", ["k", "v"])
def test_an_edit_below_a_beam_winners_mark_fails_its_rewind(sp, array,
                                                           forked):
    """verify's fault injection on a compacted beam winner: a value below
    the mark changed through ``k`` or ``v`` makes its ``rewind`` raise
    ``ImmutabilityViolation``, and restoring the value lets the rewind
    pass. A fork taken before the turn keeps its own rows through it all."""
    s, logits, _ = _beam_turn_over_100_rows(sp)
    fork = s.fork() if forked else None
    engine.beam_turn_decode(s, logits, budget=4)
    assert len(s.cache) > s.cache.mark
    rows = getattr(s.cache, array)[2]
    saved = rows[37, 5]
    rows[37, 5] += 1.0
    with pytest.raises(ImmutabilityViolation):
        s.cache.rewind()
    rows[37, 5] = saved
    assert s.cache.rewind() > 0
    if forked:
        assert fork.cache.checksum() == fork.cache.sealed == s.cache.sealed


def test_stacked_frontier_scoring_matches_per_hypothesis(sp):
    """A beam step scores its whole frontier with one log-softmax and one
    stable argsort over the stacked logits; every expansion gets the token
    and the log probability, bit for bit, that each hypothesis's own
    ``_log_softmax`` and stable argsort give it, exact ties included."""
    rng = np.random.default_rng(0)
    for trial in range(300):
        width = int(rng.integers(1, 6))
        s = session_new(Scripted({}), ChunkingConfig(4), StrategyConfig(
            "cs_fallback_beam", beam_width=width), sp)
        s.turns.append(engine.TurnRecord((0, 4), False, 2))
        frontier = []
        for i in range(int(rng.integers(1, 5))):
            # the first trials tie everywhere, small integers tie often
            if trial < 10:
                logits = np.zeros(Scripted.vocab_size)
            elif trial % 2:
                logits = rng.integers(-2, 3, Scripted.vocab_size) * 1.0
            else:
                logits = rng.standard_normal(Scripted.vocab_size)
            frontier.append(engine._Hyp([10 + i], float(rng.normal()), logits))
        want = {}
        for hyp in frontier:
            lps = _log_softmax(hyp.logits)
            for t in np.argsort(-lps, kind="stable")[:width]:
                want[(hyp.tokens[0], int(t))] = hyp.lp + float(lps[t])
        pool = []
        children = engine._beam_step(s, 0, frontier, pool, limit=100)
        got = {(h.tokens[0], h.tokens[-1] if h.stopped_via is None
                else h.stopped_via): h.lp for h in children + pool}
        assert len(children) + len(pool) == len(want)
        assert got == want


def test_beam_runs_wider(edge_example, chunk4, sp):
    suite = make_boundary_oracle([edge_example], confusion_window=1, vocab_size=32)
    s = session_new(suite.bind("edge", "ss"), chunk4,
                    StrategyConfig("ss_beam", beam_width=3), sp)
    hyp = run_stream(s, edge_example.frames)
    assert len(hyp) == 2
    # wider search explores more candidates than the one-path greedy walk
    greedy = session_new(suite.bind("edge", "ss"), chunk4,
                         StrategyConfig("ss_greedy"), sp)
    run_stream(greedy, edge_example.frames)
    assert (s.stats.forward_positions
            > greedy.stats.forward_positions)


# Every strategy on the benchmark's toy decoder (d=64, 4 layers, 8-frame
# chunks, 24 decodes per turn, width-3 beams) over the first three seed-0
# utterances: hypotheses and forward positions as the engine produced them
# before its greedy loops were merged, so a restructured decode loop or
# cache cannot change what any strategy decodes or what it computes.
TOY_PINS = {
    "ss_greedy": [
        ([9, 29, 16, 5, 18, 16, 20, 29, 9, 16, 16, 16, 16, 20, 29, 29, 9, 16,
          5, 16, 29, 16, 9, 29, 9, 5, 16, 5, 29, 16, 16, 16, 5, 16, 20, 5, 16,
          16, 20, 29, 16, 16, 5, 16, 16, 5, 16, 20], 96),
        ([29, 16, 9, 29, 18, 16, 20, 29, 9, 16, 16, 16, 16, 20, 29, 29, 9, 16,
          5, 16, 29, 16, 9, 29, 29, 16, 5, 16, 20, 16, 5, 16, 9, 16, 9, 29,
          16, 5, 16, 29, 16, 16, 5, 16, 20, 29, 5, 29, 16, 9, 16, 5, 16, 5,
          16, 5], 122),
        ([9, 29, 16, 5, 18, 16, 20, 29, 9, 16, 16, 16, 16, 20, 29, 29, 9, 16,
          5, 16, 29, 16, 9, 29, 29, 29, 16, 16, 16, 5, 16, 20, 5, 16, 16, 20,
          29, 16, 16, 5, 16, 16, 5, 16, 20, 29, 16, 9], 99),
    ],
    "ss_beam": [
        ([9, 20, 29, 5, 29, 16, 20, 29, 29, 16, 5, 16, 7, 17, 5, 29, 29, 16,
          5, 16, 20, 29, 16, 9, 9, 5, 16, 5, 29, 16, 16, 16, 5, 16, 20, 5, 16,
          16, 20, 29, 16, 16, 5, 16, 16, 5, 16, 20], 279),
        ([9, 29, 16, 5, 29, 16, 20, 29, 29, 16, 5, 16, 7, 17, 5, 29, 29, 16,
          5, 16, 20, 29, 16, 9, 29, 16, 5, 16, 29, 16, 5, 16, 9, 16, 9, 29,
          16, 5, 16, 29, 16, 16, 5, 16, 20, 29, 5, 29, 16, 9, 16, 5, 16, 5,
          16, 5], 374),
        ([9, 20, 29, 5, 29, 16, 20, 29, 29, 16, 5, 16, 16, 20, 29, 29, 29, 16,
          5, 16, 20, 29, 16, 9, 29, 29, 16, 16, 16, 5, 16, 20, 5, 16, 16, 20,
          29, 16, 16, 5, 16, 16, 5, 16, 20, 29, 16, 9], 291),
    ],
    "cs_fallback_greedy": [
        ([9, 29, 16, 18, 16, 20, 9, 16, 16, 16, 20, 29, 9, 16, 5, 29, 16, 9,
          29, 16, 5, 29, 16, 16, 16, 5, 16, 20, 5, 16, 16, 20, 29, 16, 16, 5,
          16, 16, 5, 16, 20, 29], 115),
        ([29, 16, 9, 18, 16, 20, 9, 16, 16, 16, 20, 29, 9, 16, 5, 29, 16, 9,
          29, 16, 5, 20, 16, 5, 9, 20, 29, 16, 5, 16, 29, 16, 16, 5, 16, 20,
          29, 5, 29, 16, 9, 16, 5, 16, 5, 16, 5, 16], 147),
        ([9, 29, 16, 18, 16, 20, 9, 16, 16, 16, 20, 29, 9, 16, 5, 29, 16, 9,
          29, 29, 16, 16, 5, 16, 20, 5, 16, 16, 20, 29, 16, 16, 5, 16, 16, 5,
          16, 20, 29, 16, 9, 16], 118),
    ],
    "cs_fallback_beam": [
        ([9, 20, 29, 29, 16, 20, 29, 16, 5, 7, 17, 5, 29, 16, 5, 20, 29, 16,
          29, 16, 5, 29, 16, 16, 16, 5, 16, 20, 5, 16, 16, 20, 29, 16, 16, 5,
          16, 16, 5, 16, 20, 29], 241),
        ([9, 29, 16, 29, 16, 20, 29, 16, 5, 7, 17, 5, 29, 16, 5, 20, 29, 16,
          29, 16, 5, 29, 16, 5, 9, 20, 29, 16, 5, 16, 29, 16, 16, 5, 16, 20,
          29, 5, 29, 16, 9, 16, 5, 16, 5, 16, 5, 16], 318),
        ([9, 20, 29, 29, 16, 20, 29, 16, 5, 16, 20, 29, 29, 16, 5, 20, 29, 16,
          29, 29, 16, 16, 5, 16, 20, 5, 16, 16, 20, 29, 16, 16, 5, 16, 16, 5,
          16, 20, 29, 16, 9, 16], 247),
    ],
    "ns_redecode_hold_n": [
        ([29, 16, 5, 16, 9, 29, 5, 16, 5, 16, 16, 5, 16, 20, 29, 16, 9, 29,
          16, 16, 5, 16, 5, 29], 385),
        ([29, 16, 5, 9, 9, 29, 5, 16, 5, 16, 16, 5, 16, 20, 29, 16, 9, 29, 16,
          16, 5, 16, 5, 5], 571),
        ([29, 16, 5, 16, 9, 29, 5, 16, 5, 16, 16, 5, 16, 20, 29, 16, 9, 29,
          16, 16, 5, 16, 5, 5], 388),
    ],
    "ns_redecode_local_agreement": [
        ([29, 16, 5, 29, 5, 16, 9, 16, 5, 16, 5, 16, 5, 16, 16, 5, 16, 16, 16,
          5, 16, 9, 20, 29], 385),
        ([29, 16, 9, 29, 5, 16, 5, 16, 5, 29, 16, 16, 16, 5, 16, 20, 5, 16,
          16, 20, 29, 16, 16, 5], 571),
        ([29, 16, 16, 9, 16, 5, 16, 5, 16, 5, 16, 16, 5, 16, 16, 16, 5, 16, 9,
          20, 29, 5, 16, 5], 388),
    ],
    "ns_redecode_wait_k": [
        ([29, 16, 16, 5, 20, 29, 16, 16, 5, 7, 29, 16, 29, 5, 16, 9, 5, 16,
          16, 16, 16, 9, 20, 29], 385),
        ([29, 16, 16, 5, 20, 29, 16, 16, 5, 7, 29, 16, 29, 5, 16, 9, 5, 16,
          16, 16, 29, 16, 16, 16], 571),
        ([29, 16, 16, 5, 20, 29, 16, 16, 5, 7, 29, 16, 29, 5, 16, 9, 5, 16,
          16, 16, 29, 5, 16, 5], 388),
    ],
}


@pytest.mark.parametrize("name", sorted(TOY_PINS))
def test_toy_strategies_are_pinned(name, sp):
    utts = gen_synthetic_corpus(CorpusConfig(
        num_utterances=3, vocab_size=32, frames_per_second=25.0,
        min_tokens=5, max_tokens=20, seed=0))
    model = ToyDecoder(ModelConfig(vocab_size=32, embed_dim=64, num_layers=4,
                                   num_heads=4, ffn_dim=128, max_context=2048,
                                   seed=0))
    width = 3 if name.endswith("_beam") else 1
    strategy = StrategyConfig(name, beam_width=width, max_decode_per_turn=24)
    for u, (hyp, positions) in zip(utts, TOY_PINS[name]):
        s = session_new(model, ChunkingConfig(8, speech_text_ratio=2),
                        strategy, sp)
        assert run_stream(s, u.frames) == hyp
        assert s.stats.forward_positions == positions


# Every counter of ``asdict(stats)`` on the TOY_PINS set-up, in
# SessionStats field order, as the engine produced them before its counters
# were folded from turn records.
TOY_STAT_FIELDS = ("turns", "forward_positions", "prefill_positions",
                   "decode_positions", "cache_reused_positions",
                   "rollback_count", "rollback_positions", "checksum_checks",
                   "revised", "retracted", "early_eos")
TOY_STATS = {
    "ss_greedy": [(7, 96, 49, 47, 252, 0, 0, 0, 0, 0, 0),
                  (9, 122, 67, 55, 432, 0, 0, 0, 0, 0, 0),
                  (7, 99, 52, 47, 252, 0, 0, 0, 0, 0, 0)],
    "ss_beam": [(7, 279, 49, 230, 252, 0, 0, 0, 0, 0, 0),
                (9, 374, 67, 307, 432, 0, 0, 0, 0, 0, 0),
                (7, 291, 52, 239, 252, 0, 0, 0, 0, 0, 0)],
    "cs_fallback_greedy": [(7, 115, 73, 42, 228, 6, 18, 6, 4, 0, 0),
                           (9, 147, 99, 48, 400, 8, 24, 8, 7, 0, 0),
                           (7, 118, 76, 42, 228, 6, 18, 6, 4, 0, 0)],
    "cs_fallback_beam": [(7, 241, 73, 168, 228, 6, 18, 6, 4, 0, 0),
                         (9, 318, 99, 219, 400, 8, 24, 8, 7, 0, 0),
                         (7, 247, 76, 171, 228, 6, 18, 6, 3, 0, 0)],
    "ns_redecode_hold_n": [(7, 385, 224, 161, 0, 0, 0, 0, 0, 0, 0),
                           (9, 571, 364, 207, 0, 0, 0, 0, 0, 0, 0),
                           (7, 388, 227, 161, 0, 0, 0, 0, 0, 0, 0)],
    "ns_redecode_local_agreement": [(7, 385, 224, 161, 0, 0, 0, 0, 0, 0, 0),
                                    (9, 571, 364, 207, 0, 0, 0, 0, 0, 0, 0),
                                    (7, 388, 227, 161, 0, 0, 0, 0, 0, 0, 0)],
    "ns_redecode_wait_k": [(7, 385, 224, 161, 0, 0, 0, 0, 0, 0, 0),
                           (9, 571, 364, 207, 0, 0, 0, 0, 0, 0, 0),
                           (7, 388, 227, 161, 0, 0, 0, 0, 0, 0, 0)],
}


@pytest.mark.parametrize("name", sorted(TOY_STATS))
def test_toy_strategy_counters_are_pinned(name, sp):
    utts = gen_synthetic_corpus(CorpusConfig(
        num_utterances=3, vocab_size=32, frames_per_second=25.0,
        min_tokens=5, max_tokens=20, seed=0))
    model = ToyDecoder(ModelConfig(vocab_size=32, embed_dim=64, num_layers=4,
                                   num_heads=4, ffn_dim=128, max_context=2048,
                                   seed=0))
    width = 3 if name.endswith("_beam") else 1
    strategy = StrategyConfig(name, beam_width=width, max_decode_per_turn=24)
    for u, want in zip(utts, TOY_STATS[name]):
        s = session_new(model, ChunkingConfig(8, speech_text_ratio=2),
                        strategy, sp)
        run_stream(s, u.frames)
        assert asdict(s.stats) == dict(zip(TOY_STAT_FIELDS, want))


# Every strategy on ``boundary:1`` (8-frame chunks, ratio 2, 24 decodes per
# turn, width-3 beams) over the first three seed-0 utterances of 40-120
# tokens, as the engine produced them while speech still reached a model as
# one item per frame: each hypothesis as its length and the tokens where it
# differs from the reference ({index: token}), then every counter of
# ``asdict(stats)`` in TOY_STAT_FIELDS order.
BOUNDARY_PINS = {
    "ss_greedy": [
        (82, {1: 3, 3: 12, 5: 10, 16: 25, 24: 7, 30: 7, 32: 20, 59: 29},
         (43, 507, 425, 82, 10836, 0, 0, 0, 0, 0, 0)),
        (94, {3: 3, 11: 8, 16: 29, 18: 30, 32: 25, 36: 7, 71: 11, 73: 15,
              75: 10, 77: 20, 83: 22},
         (47, 554, 460, 94, 12972, 0, 0, 0, 0, 0, 1)),
        (84, {16: 7, 20: 24, 42: 16, 46: 30, 81: 20},
         (44, 518, 434, 84, 11352, 0, 0, 0, 0, 0, 1)),
    ],
    "ss_beam": [
        (82, {1: 3, 3: 12, 5: 10, 16: 25, 24: 7, 30: 7, 32: 20, 59: 29},
         (43, 1093, 425, 668, 10836, 0, 0, 0, 0, 0, 0)),
        (94, {3: 3, 11: 8, 16: 29, 18: 30, 32: 25, 36: 7, 71: 11, 73: 15,
              75: 10, 77: 20, 83: 22},
         (47, 1210, 460, 750, 12972, 0, 0, 0, 0, 0, 1)),
        (84, {16: 7, 20: 24, 42: 16, 46: 30, 81: 20},
         (44, 1119, 434, 685, 11352, 0, 0, 0, 0, 0, 1)),
    ],
    "cs_fallback_greedy": [
        (82, {}, (43, 629, 506, 123, 10668, 42, 120, 42, 8, 0, 0)),
        (94, {}, (47, 687, 553, 134, 12788, 46, 132, 46, 11, 0, 0)),
        (84, {}, (44, 643, 517, 126, 11180, 43, 124, 43, 5, 0, 0)),
    ],
    "cs_fallback_beam": [
        (82, {}, (43, 1127, 506, 621, 10668, 42, 120, 42, 8, 0, 0)),
        (94, {}, (47, 1233, 553, 680, 12788, 46, 132, 46, 11, 0, 0)),
        (84, {}, (44, 1153, 517, 636, 11180, 43, 124, 43, 5, 0, 0)),
    ],
    "ns_redecode_hold_n": [
        (24, {}, (43, 8463, 7605, 858, 0, 0, 0, 0, 0, 0, 0)),
        (24, {}, (47, 10026, 9064, 962, 0, 0, 0, 0, 0, 0, 0)),
        (24, {}, (44, 8834, 7957, 877, 0, 0, 0, 0, 0, 0, 0)),
    ],
    "ns_redecode_local_agreement": [
        (24, {}, (43, 8463, 7605, 858, 0, 0, 0, 0, 0, 0, 0)),
        (24, {}, (47, 10026, 9064, 962, 0, 0, 0, 0, 0, 0, 0)),
        (24, {}, (44, 8834, 7957, 877, 0, 0, 0, 0, 0, 0, 0)),
    ],
    "ns_redecode_wait_k": [
        (24, {3: 12, 5: 10, 16: 25},
         (43, 8463, 7605, 858, 0, 0, 0, 0, 0, 0, 0)),
        (24, {3: 3, 11: 8, 16: 29, 18: 30},
         (47, 10026, 9064, 962, 0, 0, 0, 0, 0, 0, 0)),
        (24, {16: 7, 20: 24}, (44, 8834, 7957, 877, 0, 0, 0, 0, 0, 0, 0)),
    ],
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_PINS))
def test_boundary_strategies_are_pinned(name):
    utts = gen_synthetic_corpus(CorpusConfig(
        num_utterances=3, vocab_size=32, frames_per_second=25.0,
        min_tokens=40, max_tokens=120, seed=0))
    suite = make_boundary_oracle(utts, confusion_window=1)
    width = 3 if name.endswith("_beam") else 1
    strategy = StrategyConfig(name, beam_width=width, max_decode_per_turn=24)
    for u, (length, diffs, want) in zip(utts, BOUNDARY_PINS[name]):
        s = session_new(suite.bind(u.id, PARADIGM_OF[name]),
                        ChunkingConfig(8, speech_text_ratio=2), strategy)
        hyp = run_stream(s, u.frames)
        ref = list(u.tokens)
        assert len(hyp) == length
        assert {i: t for i, t in enumerate(hyp)
                if i >= len(ref) or t != ref[i]} == diffs
        assert asdict(s.stats) == dict(zip(TOY_STAT_FIELDS, want))


def _reference_beam(session, first_logits, budget):
    """``beam_turn_decode`` as documented, written from scratch: each
    hypothesis holds a deep copy of the cache and extends it with
    ``forward``. Each step expands every frontier hypothesis by its
    ``beam_width`` best tokens (a stable sort of its log-softmax); a stop
    or an expansion that reaches the limit is pooled, unforwarded unless a
    standard streaming one fills the last slot, and the children's
    ``beam_width`` best by rank form the next frontier. The greedy rollout
    is pooled last, and the pool's best by rank wins, the earliest pooled
    on an exact tie; its cache becomes the session's."""
    limit = min(budget, session.strategy.max_decode_per_turn)
    width, ss = session.strategy.beam_width, session.paradigm == "ss"

    def forward(cache, t):
        session.turns[-1].decode += 1
        return session.model.forward(cache, [text(t)])

    def rank(pair):
        h = pair[0]
        return (-h.lp / max(1, len(h.tokens) + (h.stopped_via is not None)),
                tuple(h.tokens))

    cache, logits, tokens, lp, stop = (copy.deepcopy(session.cache),
                                       first_logits, [], 0.0, None)
    while len(tokens) < limit:
        lps = _log_softmax(logits)
        t = int(lps.argmax())
        lp += float(lps[t])
        if t in (PAD, EOS):
            stop = t
            break
        tokens.append(t)
        logits = forward(cache, t) if len(tokens) < limit or ss else None
    rollout = (engine._Hyp(tokens, lp, logits, budget_full=stop is None,
                           stopped_via=stop), cache)
    pool, frontier = [], [(engine._Hyp([], 0.0, first_logits), session.cache)]
    while frontier:
        children = []
        for hyp, cache in frontier:
            lps = _log_softmax(hyp.logits)
            for t in map(int, np.argsort(-lps, kind="stable")[:width]):
                lp = hyp.lp + float(lps[t])
                if t in (PAD, EOS):
                    pool.append((engine._Hyp(list(hyp.tokens), lp, hyp.logits,
                                             stopped_via=t), cache))
                    continue
                child = (engine._Hyp(hyp.tokens + [t], lp, None,
                                     budget_full=len(hyp.tokens) + 1 >= limit),
                         cache)
                if not child[0].budget_full or ss:
                    child = (child[0], copy.deepcopy(cache))
                    child[0].logits = forward(child[1], t)
                (pool if child[0].budget_full else children).append(child)
        frontier = sorted(children, key=rank)[:width]
    winner, session.cache = min(pool + [rollout], key=rank)
    return winner


def _beam_runs(model_of, utts, strategy, reference=False):
    """Each utterance streamed through a session, closed by an audio-less
    final chunk, with the engine's beam or the reference beam."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(engine, "beam_turn_decode", _reference_beam)
        for u in utts:
            s = session_new(model_of(u), ChunkingConfig(8, speech_text_ratio=2),
                            strategy)
            for lo, hi in chunk_bounds(len(u.frames), 8):
                push_chunk(s, u.frames[lo:hi])
            push_chunk(s, u.frames[:0], is_last=True)
            runs.append(s)
    return runs


@pytest.mark.parametrize("name", ["ss_beam", "cs_fallback_beam"])
def test_batched_beam_matches_unbatched(name):
    """A beam turn grown as one token tree in the session cache, a span of
    rows per step, decodes what the from-scratch reference beam decodes
    with a deep copy of the cache per hypothesis: the same hypotheses,
    records, stats and turns, and per-turn scores within 1e-9, at widths
    1-3, on the benchmark's toy decoder and on ``boundary:1``, through an
    audio-less final chunk."""
    toy = ToyDecoder(ModelConfig(vocab_size=32, embed_dim=64, num_layers=4,
                                 num_heads=4, ffn_dim=128, max_context=2048,
                                 seed=0))
    short = gen_synthetic_corpus(CorpusConfig(
        num_utterances=3, vocab_size=32, min_tokens=5, max_tokens=20, seed=0))
    long = gen_synthetic_corpus(CorpusConfig(
        num_utterances=2, vocab_size=32, min_tokens=40, max_tokens=80, seed=1))
    suite = make_boundary_oracle(long, confusion_window=1)
    for model_of, utts in ((lambda u: toy, short),
                           (lambda u: suite.bind(u, PARADIGM_OF[name]), long)):
        for width in (1, 2, 3):
            strategy = StrategyConfig(name, beam_width=width,
                                      max_decode_per_turn=24)
            tree = _beam_runs(model_of, utts, strategy)
            ref = _beam_runs(model_of, utts, strategy, reference=True)
            for a, b in zip(tree, ref):
                assert final_hypothesis(a) == final_hypothesis(b)
                assert a.records == b.records
                assert asdict(a.stats) == asdict(b.stats)
                turns = [[asdict(t) for t in s.turns] for s in (a, b)]
                scores = [[t.pop("score") for t in ts] for ts in turns]
                assert np.allclose(*scores, rtol=1e-9, atol=0)
                assert turns[0] == turns[1]
                assert a.stats.decode_positions > len(a.turns)


class _SplitPrefill:
    """A model that forwards a text-then-speech item list as two calls,
    the text and then the speech span, as a context-aware turn prefilled
    before its slot span and speech shared one forward. Everything else
    passes through to the wrapped model."""

    def __init__(self, model):
        self.model, self.splits = model, 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def forward(self, cache, items):
        cut = next((i for i, it in enumerate(items)
                    if isinstance(it, SpeechSpan)), len(items))
        if 0 < cut < len(items):
            self.splits += 1
            self.model.forward(cache, items[:cut])
            items = items[cut:]
        return self.model.forward(cache, items)


@pytest.mark.parametrize("name", ["cs_fallback_greedy", "cs_fallback_beam"])
@pytest.mark.parametrize("kind", ["toy", "boundary"])
def test_one_prefill_call_matches_two(name, kind, sp):
    """A context-aware turn that prefills its re-presented slot span and
    its chunk's speech in one forward decodes what two forwards do: same
    hypotheses, records, counters and per-turn positions, through an
    audio-less final chunk. Scores agree to 1e-9 on the toy decoder (a
    gemm row's last bit depends on how many rows share the call) and
    exactly on the symbolic oracle."""
    utts = gen_synthetic_corpus(CorpusConfig(
        num_utterances=5, vocab_size=32, frames_per_second=25.0,
        min_tokens=5, max_tokens=20, seed=0))
    toy = ToyDecoder(ModelConfig(vocab_size=32, embed_dim=64, num_layers=4,
                                 num_heads=4, ffn_dim=128, max_context=2048,
                                 seed=0))
    suite = make_boundary_oracle(utts, confusion_window=1)
    chunking = ChunkingConfig(8, speech_text_ratio=2)
    width = 3 if name.endswith("_beam") else 1
    strategy = StrategyConfig(name, beam_width=width, max_decode_per_turn=24)
    splits = 0
    for u in utts:
        model = toy if kind == "toy" else suite.bind(u.id, "cs")
        runs = []
        for m in (model, _SplitPrefill(model)):
            s = session_new(m, chunking, strategy, sp)
            for lo, hi in chunk_bounds(len(u.frames), 8):
                push_chunk(s, u.frames[lo:hi])
            push_chunk(s, u.frames[:0], is_last=True)
            runs.append(s)
        splits += runs[1].model.splits
        a, b = runs
        assert final_hypothesis(a) == final_hypothesis(b)
        assert a.records == b.records
        assert asdict(a.stats) == asdict(b.stats)
        turns = [[asdict(t) for t in s.turns] for s in runs]
        scores = [[t.pop("score") for t in ts] for ts in turns]
        if kind == "toy":
            assert np.allclose(*scores, rtol=1e-9, atol=0)
        else:
            assert scores[0] == scores[1]
        assert turns[0] == turns[1]
    assert splits > 0


@pytest.mark.parametrize("name", ["cs_fallback_greedy", "cs_fallback_beam"])
def test_context_aware_turn_prefills_in_one_call(name, sp):
    """Every context-aware turn after the first that carries audio makes one
    prefill forward, the previous turn's slot span then the chunk's speech,
    and every other forward of the turn decodes one position, or one per
    row of a beam step's tree."""
    utts = gen_synthetic_corpus(CorpusConfig(
        num_utterances=3, vocab_size=32, frames_per_second=25.0,
        min_tokens=5, max_tokens=20, seed=0))
    chunking = ChunkingConfig(8, speech_text_ratio=2)
    width = 3 if name.endswith("_beam") else 1
    strategy = StrategyConfig(name, beam_width=width, max_decode_per_turn=24)
    checked = 0
    for u in utts:
        model = _Counting(_SMALL_TOY)
        s = session_new(model, chunking, strategy, sp)
        for lo, hi in chunk_bounds(len(u.frames), 8):
            start = len(model.calls)
            push_chunk(s, u.frames[lo:hi])
            k, turn, calls = len(s.turns) - 1, s.turns[-1], model.calls[start:]
            if k == 0:
                continue
            prev = s.turns[-2]
            span = [text(t) for t in prev.tokens[:-1]]
            span += [text(sp.pad)] * (prev.slots - len(span))
            # the slot span's items, then the chunk's speech as one span
            assert len(calls[0]) == len(span) + 1
            assert _positions(calls[0]) == span + [
                speech(f) for f in range(*turn.frames)]
            assert turn.prefill == len(_positions(calls[0]))
            lone = [len(c) for i, c in enumerate(calls[1:], start + 1)
                    if i not in model.trees]
            assert lone == [1] * len(lone)
            assert sum(map(len, calls[1:])) == turn.decode
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", STRATEGIES)
def test_a_chunk_reaches_the_model_as_one_span(name):
    """Every turn forwards its chunk's speech as one ``SpeechSpan`` over
    the chunk's frames, uncopied, and a chunk without rows forwards none;
    a re-decoding session keeps one span per chunk with rows, and
    re-prefills all of them each turn."""
    u = gen_synthetic_corpus(CorpusConfig(num_utterances=1, seed=4))[0]
    model = _Counting(_SMALL_TOY)
    width = 3 if name.endswith("_beam") else 1
    s = session_new(model, ChunkingConfig(4), StrategyConfig(
        name, beam_width=width, max_decode_per_turn=6))
    cuts = [(0, 4), (4, 4), (4, 9), (9, 12), (12, u.num_frames)]
    for k, (lo, hi) in enumerate(cuts):
        start = len(model.calls)
        push_chunk(s, u.frames[lo:hi], is_last=k == len(cuts) - 1)
        spans = [it for c in model.calls[start:] for it in c
                 if isinstance(it, SpeechSpan)]
        if PARADIGM_OF[name] == "ns":
            assert spans == s.ns_items
            assert len(spans) == sum(b > a for a, b in cuts[:k + 1])
            spans = spans[-1:] if hi > lo else []
        assert [(sp_.start, len(sp_)) for sp_ in spans] == (
            [(lo, hi - lo)] if hi > lo else [])
        assert all(np.shares_memory(sp_.frames, u.frames) for sp_ in spans)


class _LoggedToy(ToyDecoder):
    """A toy decoder that logs every item it is given, through ``forward``
    and ``forward_tree`` alike."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.items = []

    def forward(self, cache, items):
        self.items += items
        return super().forward(cache, items)

    def forward_tree(self, cache, root, items, paths):
        self.items += items
        return super().forward_tree(cache, root, items, paths)


@pytest.mark.parametrize("kind", ["toy", "boundary"])
@pytest.mark.parametrize("name", STRATEGIES)
def test_every_text_item_is_the_layouts_own_position(name, kind):
    """Every text item a session forwards, as a tree row or not, is the very
    object ``layout.text`` returns for its token, and the items account for
    every forwarded position, through an audio-less final chunk."""
    u = gen_synthetic_corpus(CorpusConfig(num_utterances=1, seed=4))[0]
    if kind == "toy":
        model = _LoggedToy(_SMALL_TOY.cfg)
    else:
        model = _Counting(make_boundary_oracle([u], 1).bind(
            u, PARADIGM_OF[name]))
    width = 3 if name.endswith("_beam") else 1
    s = session_new(model, ChunkingConfig(4), StrategyConfig(
        name, beam_width=width, max_decode_per_turn=6))
    for lo, hi in chunk_bounds(u.num_frames, 4):
        push_chunk(s, u.frames[lo:hi])
    push_chunk(s, u.frames[:0], is_last=True)
    items = (model.items if kind == "toy"
             else [it for call in model.calls for it in call])
    texts = [it for it in items if not isinstance(it, SpeechSpan)]
    assert texts and all(it is text(it.value) for it in texts)
    assert sum(map(len, items)) == s.stats.forward_positions


def test_context_aware_overflow_appends_nothing(sp):
    """A merged prefill past ``max_context`` raises before any row lands:
    the cache stays at the chunk mark and the turn books no prefill."""
    model = ToyDecoder(ModelConfig(vocab_size=32, embed_dim=16, num_layers=1,
                                   num_heads=2, ffn_dim=16, max_context=12,
                                   seed=2))
    s = session_new(model, ChunkingConfig(8, speech_text_ratio=2),
                    StrategyConfig("cs_fallback_greedy"), sp)
    # turn 0 holds 8 frames and at most 3 decodes; turn 1 re-presents a
    # 4-slot span and 8 more frames at position 8, past 12
    push_chunk(s, _frames(8))
    with pytest.raises(ContextOverflow):
        push_chunk(s, _frames(8))
    assert len(s.cache) == s.cache.mark == 8
    assert s.turns[-1].prefill == 0


# -----------------------------
# re-decoding baselines
# -----------------------------

def _ns_session(u, name, ck, sp, **kw):
    suite = make_boundary_oracle([u], confusion_window=1, vocab_size=32)
    return session_new(suite.bind(u.id, "ns"), ck, StrategyConfig(name, **kw), sp)


def test_ns_strategies_recover_the_reference(edge_example, chunk4, sp):
    for name, kw in (
        ("ns_redecode_hold_n", {"hold_n": 1}),
        ("ns_redecode_local_agreement", {}),
        ("ns_redecode_wait_k", {"wait_k": 1}),
    ):
        s = _ns_session(edge_example, name, chunk4, sp, **kw)
        assert run_stream(s, edge_example.frames) == [13, 20]


def test_ns_commits_are_monotone(chunk4, sp):
    utts = gen_synthetic_corpus(CorpusConfig(num_utterances=3, seed=4))
    suite = make_boundary_oracle(utts, confusion_window=1)
    for u in utts:
        s = session_new(suite.bind(u.id, "ns"), chunk4,
                        StrategyConfig("ns_redecode_hold_n", hold_n=1), sp)
        committed = []
        bounds = chunk_bounds(u.num_frames, 4)
        for lo, hi in bounds:
            push_chunk(s, u.frames[lo:hi], is_last=hi == u.num_frames)
            hyp = final_hypothesis(s)
            assert hyp[:len(committed)] == committed
            committed = hyp
        assert committed == u.tokens


def test_ns_redecodes_from_scratch_each_turn(edge_example, chunk4, sp):
    u = edge_example
    s = _ns_session(u, "ns_redecode_hold_n", chunk4, sp, hold_n=1)
    cache = s.cache
    for lo, hi in chunk_bounds(u.num_frames, 4):
        push_chunk(s, u.frames[lo:hi], is_last=hi == u.num_frames)
        # each turn empties the session's one cache and prefills it again,
        # which is not a fallback rewind
        turn = s.turns[-1]
        assert s.cache is cache and len(cache) == turn.prefill + turn.decode
        assert turn.rolled_back is None
    st = s.stats
    # quadratic prefill: chunk 1 re-reads nothing, chunk 2 re-reads chunk 1
    assert st.cache_reused_positions == 0
    assert st.prefill_positions >= 4 + 1 + 8 + 1


# -----------------------------
# shared read-only logits
# -----------------------------

@st.composite
def _step_rows(draw):
    """Finite logit rows: scaled draws, some with a repeated maximum, and
    the oracles' one-hot windows."""
    kind = draw(st.sampled_from(["scaled", "repeated_max", "one_hot"]))
    n = draw(st.integers(2, 64))
    if kind == "one_hot":
        return _one_hot_logits(_one_hot_rows(n), draw(st.integers(0, n - 1)))
    row = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    row = row * draw(st.floats(0.01, 50.0))
    if kind == "repeated_max":
        at = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n,
                           unique=True))
        row[at] = row.max()
    return row


@settings(max_examples=500, deadline=None)
@given(row=_step_rows())
def test_a_greedy_step_is_the_first_argmax_and_its_lps_entry(row):
    """One greedy step picks the first maximum logit and scores it with
    ``_log_softmax(row)[t]``, bit for bit."""
    tokens, lp, stop, logits = _greedy(None, None, row, 1)
    t = tokens[0] if tokens else stop
    assert t == int(row.argmax())
    assert (stop is not None) == (t in (PAD, EOS))
    assert struct.pack("d", lp) == struct.pack("d", _log_softmax(row)[t])
    assert logits is row


def _reference_greedy(session, cache, logits, limit):
    """``_greedy`` as it read every step's token and score off
    ``_log_softmax``."""
    tokens, lp = [], 0.0
    while len(tokens) < limit:
        lps = _log_softmax(logits)
        t = int(lps.argmax())
        lp += float(lps[t])
        if t == PAD or t == EOS:
            return tokens, lp, t, logits
        tokens.append(t)
        if len(tokens) < limit:
            logits = session._fwd(cache, [text(t)], "decode")
    return tokens, lp, None, logits


def _session_outcomes(name, model_of, utts, greedy):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_greedy", greedy)
        out = []
        width = 3 if name.endswith("_beam") else 1
        for u in utts:
            s = session_new(model_of(u), ChunkingConfig(8, speech_text_ratio=2),
                            StrategyConfig(name, beam_width=width,
                                           max_decode_per_turn=24))
            hyp = run_stream(s, u.frames)
            out.append((hyp, s.records, [asdict(t) for t in s.turns],
                        [struct.pack("d", t.score) for t in s.turns]))
    return out


@pytest.mark.parametrize("kind", ["toy", "boundary"])
@pytest.mark.parametrize("name", STRATEGIES)
def test_sessions_match_the_lps_greedy_reference(name, kind):
    """Every strategy decodes the same tokens, stops, records and turn
    scores, bit for bit, as with a greedy loop that scores from
    ``_log_softmax``:
    on the benchmark's toy decoder and on ``boundary:1``."""
    if kind == "toy":
        utts = gen_synthetic_corpus(CorpusConfig(
            num_utterances=2, vocab_size=32, frames_per_second=25.0, seed=0))
        toy = ToyDecoder(ModelConfig(vocab_size=32, embed_dim=64, num_layers=4,
                                     num_heads=4, ffn_dim=128,
                                     max_context=2048, seed=0))
        model_of = lambda u: toy
    else:
        utts = gen_synthetic_corpus(CorpusConfig(
            num_utterances=2, vocab_size=32, frames_per_second=25.0,
            min_tokens=40, max_tokens=120, seed=0))
        suite = make_boundary_oracle(utts, confusion_window=1)
        model_of = lambda u: suite.bind(u.id, PARADIGM_OF[name])
    assert (_session_outcomes(name, model_of, utts, _greedy)
            == _session_outcomes(name, model_of, utts, _reference_greedy))


@pytest.mark.parametrize("name", STRATEGIES)
def test_strategies_decode_from_shared_read_only_logits(name):
    """The teacher and the boundary oracle reply with windows of one
    read-only vector, to a forward and to each row of a beam's tree step;
    every strategy decodes from them without writing into logits (a write
    would raise), and the vector is unchanged after."""
    utts = gen_synthetic_corpus(CorpusConfig(num_utterances=3, seed=5))
    ck = ChunkingConfig(4)
    paradigm = PARADIGM_OF[name]
    layout_of = {"ns": lambda u: build_ns(u, SP),
                 "ss": lambda u: build_ss(u, ck, SP),
                 "cs": lambda u: build_cs(u, ck, SP)}[paradigm]
    suite = make_boundary_oracle(utts, confusion_window=1)
    strategy = StrategyConfig(name, beam_width=3 if name.endswith("_beam") else 1)
    for u in utts:
        for model in (TeacherOracle(layout_of(u)), suite.bind(u, paradigm)):
            replies = []

            def forward(cache, items, inner=model.forward):
                replies.append(inner(cache, items))
                return replies[-1]

            def forward_tree(cache, root, items, paths,
                             inner=model.forward_tree):
                rows = inner(cache, root, items, paths)
                replies.extend(rows)
                return rows

            model.forward, model.forward_tree = forward, forward_tree
            run_stream(session_new(model, ck, strategy, SP), u.frames)
            assert replies
            assert all(r.base is model._rows and not r.flags.writeable
                       for r in replies)
            assert np.array_equal(model._rows, _one_hot_rows(32))


@pytest.mark.parametrize("name", STRATEGIES)
def test_the_ignored_sp_argument_changes_nothing(name):
    """``SpecialTokens()`` passed as the trailing ``sp`` that
    ``make_boundary_oracle``, the layout builders and ``session_new`` still
    accept gives the same layouts, hypotheses, records and stats as leaving
    it out."""
    utts = gen_synthetic_corpus(CorpusConfig(num_utterances=3, seed=2))
    ck = ChunkingConfig(8)
    paradigm = PARADIGM_OF[name]
    strategy = StrategyConfig(name, beam_width=3 if name.endswith("_beam") else 1)

    def run(**sp):
        suite = make_boundary_oracle(utts, 1, vocab_size=32, **sp)
        out = []
        for u in utts:
            seq = (build_ns(u, **sp) if paradigm == "ns" else
                   {"ss": build_ss, "cs": build_cs}[paradigm](u, ck, **sp))
            s = session_new(suite.bind(u, paradigm), ck, strategy, **sp)
            hyp = run_stream(s, u.frames)
            out.append((seq.positions, seq.targets, seq.segments, hyp,
                        [asdict(r) for r in s.records], asdict(s.stats),
                        s.turns))
        return out

    assert run(sp=SpecialTokens()) == run()


# -----------------------------
# the logits a turn starts from
# -----------------------------

class _LastLogits:
    """Passes every call through to ``model`` and keeps, per cache, the
    logits ``forward`` last returned for it."""

    def __init__(self, model):
        self.model, self.last = model, weakref.WeakKeyDictionary()

    def __getattr__(self, name):
        return getattr(self.model, name)

    def forward(self, cache, items):
        self.last[cache] = self.model.forward(cache, items)
        return self.last[cache]


def _first_choice(turn):
    return turn.tokens[0] if turn.tokens else turn.stop


def test_a_pad_fill_leaves_its_logits_for_the_final_turn(sp):
    """A standard streaming turn capped below its 4 slots pads the rest; an
    audio-less final turn then decodes from the logits of that pad fill,
    the ones the model last returned for the cache, not from the logits
    the slot phase stopped on."""
    stale = []
    for seed in range(40):
        model = _LastLogits(ToyDecoder(ModelConfig(seed=seed)))
        frames = np.random.default_rng(seed).normal(size=(8, 8))
        for cap in (1, 2, 3):
            s = session_new(model, ChunkingConfig(8),
                            StrategyConfig("ss_greedy", max_decode_per_turn=cap),
                            sp)
            push_chunk(s, frames)
            before = model.last[s.cache]
            push_chunk(s, frames[:0], is_last=True)
            assert s.turns[-1].prefill == 0
            if _first_choice(s.turns[-1]) != int(np.argmax(before)):
                stale.append((seed, cap))
    assert stale == []


def test_a_final_turn_the_cap_stopped_emits_its_tokens_as_decoded(sp):
    """A final turn that ``max_decode_per_turn`` stops below its slot
    budget has nothing to flush: context-aware greedy and beam emit the
    tokens they decoded, as standard streaming and an exact boundary oracle
    do, and revise nothing. Tokens 18 and 19 end on frames 4 and 5 of 7,
    so both fall due in the final chunk, which has 3 slots."""
    u = Utterance("capped", [18, 19], [TokenAlignment(18, 0, 4),
                                       TokenAlignment(19, 5, 5)],
                  np.zeros((7, 8)))
    ck = ChunkingConfig(4, speech_text_ratio=1)
    cs_teacher = TeacherOracle(build_cs(u, ck))
    runs = [("ss_greedy", 1, TeacherOracle(build_ss(u, ck))),
            ("cs_fallback_greedy", 1, cs_teacher),
            ("cs_fallback_beam", 1, cs_teacher),
            ("cs_fallback_beam", 3, cs_teacher),
            ("cs_fallback_greedy", 1,
             make_boundary_oracle([u], confusion_window=0).bind(u, "cs"))]
    for cap, want in ((1, [18]), (2, [18, 19])):
        for name, width, model in runs:
            s = session_new(model, ck, StrategyConfig(
                name, beam_width=width, max_decode_per_turn=cap), sp)
            assert run_stream(s, u.frames) == want, (name, width, cap)
            assert s.turns[-1].tokens == tuple(want)
            assert not any(r.revised for r in s.records)


# -----------------------------
# the session API as a state machine
# -----------------------------

@st.composite
def _machine_setups(draw):
    """An utterance, a model over it (a small toy decoder, depth 0
    included, the teacher of its layout, or a boundary oracle of window
    0..2, drawn as "toy", "teacher" or the window), a chunking, and a
    strategy whose per-turn cap falls below or above the slot budget."""
    u = gen_synthetic_corpus(CorpusConfig(
        num_utterances=1, min_tokens=1, max_tokens=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 10_000))))[0]
    name = draw(st.sampled_from(STRATEGIES))
    paradigm = PARADIGM_OF[name]
    ck = ChunkingConfig(draw(st.integers(1, 8)), draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["toy", "teacher", 0, 1, 2]))
    if kind == "toy":
        heads = draw(st.integers(1, 2))
        model = ToyDecoder(ModelConfig(
            embed_dim=heads * draw(st.sampled_from([2, 4])),
            num_layers=draw(st.integers(0, 2)), num_heads=heads,
            ffn_dim=draw(st.integers(1, 8)), adapter_hidden=4,
            max_context=4096, seed=draw(st.integers(0, 100))))
    elif kind == "teacher":
        model = TeacherOracle(build_ns(u) if paradigm == "ns" else
                              {"ss": build_ss, "cs": build_cs}[paradigm](u, ck))
    else:
        model = make_boundary_oracle([u], kind).bind(u, paradigm)
    strategy = StrategyConfig(
        name, beam_width=draw(st.integers(1, 3)) if name.endswith("_beam") else 1,
        hold_n=draw(st.integers(0, 2)), wait_k=draw(st.integers(0, 2)),
        max_decode_per_turn=draw(st.integers(1, 2 * ck.slots(ck.chunk_frames) + 1)))
    return u, _LastLogits(model), kind, ck, strategy


class SessionMachine(RuleBasedStateMachine):
    """Streams an utterance through a session in chunks of 0 to twice the
    chunk size, forking it on the way and feeding every copy the same
    chunks, and checks the session's invariants after every step: its
    stats fold its turns, records finalize no earlier than they emit and
    only a context-aware session's newest one is pending, the cache holds
    what the turns forwarded and its seal verifies, the copies agree, and
    a greedy streaming turn that forwards nothing first decodes from the
    logits the model last returned for its cache. A teacher's stream
    comes in its layout's own chunks, the final one with audio. A
    finished stream on an exact model (the teacher, or a boundary oracle
    of window 0), with a cap of at least its token count, decodes the
    reference; with a cap above it, a greedy streaming teacher's cache
    holds its layout's positions."""

    @initialize(setup=_machine_setups())
    def start(self, setup):
        self.u, self.model, self.kind, ck, strategy = setup
        self.sessions = [session_new(self.model, ck, strategy, SP)]
        self.greedy = not strategy.name.endswith("_beam")

    def _push(self, n, is_last):
        lo = self.sessions[0].frames_seen
        for s in self.sessions:
            before = self.model.last.get(s.cache)
            push_chunk(s, self.u.frames[lo:lo + n], is_last=is_last)
            turn = s.turns[-1]
            if (self.greedy and s.paradigm != "ns" and turn.prefill == 0
                    and _first_choice(turn) is not None):
                assert _first_choice(turn) == int(np.argmax(before))

    def _left(self):
        return self.u.num_frames - self.sessions[0].frames_seen

    @rule(data=st.data())
    def push(self, data):
        step = self.sessions[0].chunking.chunk_frames
        if self.kind == "teacher":  # the next chunk, unless it is the last
            if self._left() > step:
                self._push(step, False)
            return
        most = min(2 * step, self._left())
        self._push(data.draw(st.integers(0, most)), False)

    @rule()
    def fork(self):
        """Fork the stream, keeping at most two copies besides it."""
        del self.sessions[2:]
        s = self.sessions[0]
        dup = s.fork()
        if s.cache in self.model.last:
            self.model.last[dup.cache] = self.model.last[s.cache]
        self.sessions.append(dup)

    @rule(setup=_machine_setups(), audio_less=st.booleans())
    def push_last(self, setup, audio_less):
        """Close the stream with the rest of its audio, or with that and
        then an audio-less final chunk; check the result and start the
        next stream."""
        if audio_less and self.kind != "teacher":
            self._push(self._left(), False)
            self.consistent()
        self._finish()
        self.start(setup)

    def _finish(self):
        s0 = self.sessions[0]
        if self.kind == "teacher":
            while self._left() > s0.chunking.chunk_frames:
                self._push(s0.chunking.chunk_frames, False)
        self._push(self._left(), True)
        self.consistent()
        if (self.kind not in (0, "teacher")
                or s0.strategy.max_decode_per_turn < len(self.u.tokens)):
            return
        for s in self.sessions:
            assert final_hypothesis(s) == self.u.tokens
        # a cap above the token count never binds before a slot budget
        # does, as in a layout, where a context-aware final chunk's last
        # token is not withheld unless the chunk's slots are full
        if (self.kind == "teacher" and self.greedy and s0.paradigm != "ns"
                and s0.strategy.max_decode_per_turn > len(self.u.tokens)):
            want = [(p.kind, p.value) for p in self.model.seq.positions]
            for s in self.sessions:
                assert list(zip(s.cache.kinds.decode(), s.cache.values)) == want

    @invariant()
    def consistent(self):
        s = self.sessions[0]
        _assert_folded(s)
        assert all(r.emit_chunk <= r.finalize_chunk for r in s.records
                   if r.finalize_chunk is not None)
        pending = [i for i, r in enumerate(s.records) if r.finalize_chunk is None]
        assert pending in ([], [len(s.records) - 1])
        assert not pending or (s.paradigm == "cs" and not s.finished)
        st_ = s.stats
        if s.paradigm == "ns" and s.turns:
            assert len(s.cache) == s.turns[-1].prefill + s.turns[-1].decode
        elif s.paradigm != "ns" and self.greedy:
            assert len(s.cache) == (st_.prefill_positions + st_.decode_positions
                                    - st_.rollback_positions)
        if s.paradigm == "cs" and s.turns:
            assert s.cache.sealed is not None
            assert s.cache.checksum(s.cache.mark) == s.cache.sealed
        for dup in self.sessions[1:]:
            assert (dup.turns, dup.records) == (s.turns, s.records)
            assert len(dup.cache) == len(s.cache)

    def teardown(self):
        # a failed step may leave the stream finished; it reports itself
        if hasattr(self, "sessions") and not self.sessions[0].finished:
            self._finish()


TestSessionMachine = SessionMachine.TestCase
TestSessionMachine.settings = settings(deadline=None)
