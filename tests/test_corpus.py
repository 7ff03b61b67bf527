"""Text normalization, alignment aggregation, and synthetic corpus generation."""

import json

import numpy as np
import pytest

from streamasr.corpus import (
    FIRST_TEXT_ID,
    AlignmentError,
    CharAlignment,
    CorpusConfig,
    MultiCharCjkToken,
    OverlappingSpans,
    Utterance,
    aggregate_alignments,
    gen_synthetic_corpus,
    normalize_text,
    read_corpus,
    validate_utterance,
    write_corpus,
)


# -----------------------------
# normalize_text
# -----------------------------

def test_normalize_lowercases_and_strips_punctuation():
    assert normalize_text("Hello, World!") == "hello world"


def test_normalize_collapses_whitespace():
    assert normalize_text("  a\t b\n\nc ") == "a b c"


def test_normalize_idempotent():
    samples = ["Already clean", "MIXED case, with; punct!", " spaced\tout "]
    for s in samples:
        once = normalize_text(s)
        assert normalize_text(once) == once


# -----------------------------
# aggregate_alignments
# -----------------------------

def _chars(spans):
    return [CharAlignment(ch, lo, hi) for ch, lo, hi in spans]


def test_aggregate_floors_ms_to_frames():
    # 25 fps: one frame every 40 ms; 39 ms is still frame 0, 40 ms is frame 1
    chars = _chars([("a", 0, 39), ("b", 40, 119)])
    out = aggregate_alignments(chars, [(0, 0), (1, 1)], 25.0)
    assert (out[0].start_frame, out[0].end_frame) == (0, 0)
    assert (out[1].start_frame, out[1].end_frame) == (1, 2)


def test_aggregate_token_span_is_min_max_over_chars():
    chars = _chars([("a", 0, 40), ("b", 40, 80), ("c", 80, 200)])
    out = aggregate_alignments(chars, [(0, 2)], 25.0, token_ids=[7])
    assert out == [type(out[0])(7, 0, 5)]


def test_aggregate_default_ids_are_ordinals():
    chars = _chars([("a", 0, 40), ("b", 40, 80)])
    out = aggregate_alignments(chars, [(0, 0), (1, 1)], 25.0)
    assert [t.token_id for t in out] == [0, 1]


def test_aggregate_rejects_overlapping_chars():
    chars = _chars([("a", 0, 50), ("b", 40, 80)])
    with pytest.raises(OverlappingSpans):
        aggregate_alignments(chars, [(0, 0), (1, 1)], 25.0)


def test_aggregate_rejects_gapped_token_spans():
    chars = _chars([("a", 0, 40), ("b", 40, 80), ("c", 80, 120)])
    with pytest.raises(OverlappingSpans):
        aggregate_alignments(chars, [(0, 0), (2, 2)], 25.0)


def test_aggregate_rejects_uncovered_tail():
    chars = _chars([("a", 0, 40), ("b", 40, 80)])
    with pytest.raises(OverlappingSpans):
        aggregate_alignments(chars, [(0, 0)], 25.0)


def test_aggregate_rejects_multi_cjk_token():
    chars = _chars([("今", 0, 100), ("天", 100, 200)])
    with pytest.raises(MultiCharCjkToken):
        aggregate_alignments(chars, [(0, 1)], 25.0)


def test_aggregate_allows_single_cjk_token():
    chars = _chars([("今", 0, 100), ("a", 100, 200)])
    out = aggregate_alignments(chars, [(0, 0), (1, 1)], 25.0)
    assert len(out) == 2


# -----------------------------
# synthetic corpus
# -----------------------------

def test_gen_deterministic_for_seed():
    cfg = CorpusConfig(num_utterances=6, seed=11)
    a = gen_synthetic_corpus(cfg)
    b = gen_synthetic_corpus(cfg)
    for ua, ub in zip(a, b):
        assert ua.tokens == ub.tokens
        assert ua.alignments == ub.alignments
        assert np.array_equal(ua.frames, ub.frames)


def test_gen_seed_changes_content():
    a = gen_synthetic_corpus(CorpusConfig(num_utterances=6, seed=0))
    b = gen_synthetic_corpus(CorpusConfig(num_utterances=6, seed=1))
    assert any(ua.tokens != ub.tokens for ua, ub in zip(a, b))


def test_gen_structure_invariants(tiny_corpus):
    cfg = CorpusConfig(num_utterances=12, seed=0)
    assert len(tiny_corpus) == cfg.num_utterances
    for u in tiny_corpus:
        assert cfg.min_tokens <= len(u.tokens) <= cfg.max_tokens
        assert all(FIRST_TEXT_ID <= t < cfg.vocab_size for t in u.tokens)
        assert len(u.alignments) == len(u.tokens)
        prev_end = -1
        for a in u.alignments:
            assert a.start_frame > prev_end
            assert a.end_frame >= a.start_frame
            prev_end = a.end_frame
        # trailing silence: later audio can always resolve the last token
        assert u.alignments[-1].end_frame < u.num_frames - 1
        assert u.frames.shape == (u.num_frames, cfg.frame_dim)
        assert np.isfinite(u.frames).all()


# -----------------------------
# JSONL round trips
# -----------------------------

def test_round_trip_with_regenerated_frames(tmp_path, tiny_corpus):
    cfg = CorpusConfig(num_utterances=12, seed=0)
    path = tmp_path / "c.jsonl"
    write_corpus(path, tiny_corpus, cfg)
    back = read_corpus(path)
    assert len(back) == len(tiny_corpus)
    for u, v in zip(tiny_corpus, back):
        assert u.id == v.id
        assert u.tokens == v.tokens
        assert u.alignments == v.alignments
        assert np.array_equal(u.frames, v.frames)


def test_round_trip_with_inline_frames(tmp_path, tiny_corpus):
    path = tmp_path / "c.jsonl"
    write_corpus(path, tiny_corpus, None, inline_frames=True)
    back = read_corpus(path)
    for u, v in zip(tiny_corpus, back):
        assert np.array_equal(u.frames, v.frames)


# -----------------------------
# config validation
# -----------------------------

def test_read_corpus_rejects_an_invalid_utterance(tmp_path, tiny_corpus):
    path = tmp_path / "c.jsonl"
    write_corpus(path, tiny_corpus, inline_frames=True)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["alignments"] = rec["alignments"][:-3]
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(AlignmentError, match=rec["id"]):
        read_corpus(path)


def test_read_corpus_rejects_frames_without_columns(tmp_path, tiny_corpus):
    path = tmp_path / "c.jsonl"
    write_corpus(path, tiny_corpus, inline_frames=True)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["frames"] = [[] for _ in rec["frames"]]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{rec['id']}: frames of shape"):
        read_corpus(path)


def test_validate_utterance_checks_the_frame_matrix():
    for frames in (np.zeros((4, 0)), np.zeros(4)):
        with pytest.raises(ValueError, match="frame_dim >= 1"):
            validate_utterance(Utterance("u", [], [], frames))
    validate_utterance(Utterance("u", [], [], np.zeros((0, 0))))  # no audio


def test_config_rejects_zero_frame_dim():
    with pytest.raises(ValueError, match="frame_dim"):
        CorpusConfig(frame_dim=0)


def test_config_rejects_tiny_vocab():
    with pytest.raises(ValueError):
        CorpusConfig(vocab_size=FIRST_TEXT_ID)


def test_config_rejects_bad_token_counts():
    with pytest.raises(ValueError):
        CorpusConfig(min_tokens=0)
    with pytest.raises(ValueError):
        CorpusConfig(min_tokens=9, max_tokens=5)


def test_config_rejects_short_tokens():
    with pytest.raises(ValueError):
        CorpusConfig(frames_per_token_mean=1.5)
