"""Synthetic corpus generation, JSON Lines round trips, and the checks
``read_corpus`` runs on every record."""

import json

import numpy as np
import pytest

from streamasr.corpus import (
    FIRST_TEXT_ID,
    AlignmentError,
    CorpusConfig,
    OverlappingSpans,
    Utterance,
    gen_synthetic_corpus,
    read_corpus,
    validate_utterance,
    write_corpus,
)


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_read_corpus_rejects_a_frame_that_is_not_finite(tmp_path, tiny_corpus,
                                                        value):
    """Python's json reads ``NaN`` and ``Infinity``; an inline frame holding
    one is a malformed record named by its id, not silent garbage."""
    path = tmp_path / "c.jsonl"
    write_corpus(path, tiny_corpus, inline_frames=True)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["frames"][2][1] = value
    lines[1] = json.dumps(rec)
    assert "NaN" in lines[1] or "Infinity" in lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(AlignmentError, match=f"^{rec['id']}: malformed "
                       "record: frames must be finite"):
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


@pytest.mark.parametrize("tokens, spans, error, message", [
    ([10, 11], [[0, 2], [5, 3]], AlignmentError, "empty span"),
    ([10, 11], [[3, 5], [0, 2]], OverlappingSpans, "unsorted or overlapping"),
    ([10, 11], [[0, 3], [3, 5]], OverlappingSpans, "unsorted or overlapping"),
    ([10, 11], [[0, 2], [3, 8]], AlignmentError, "alignment past"),
    ([10, FIRST_TEXT_ID - 1], [[0, 2], [3, 5]], AlignmentError, "reserved id"),
], ids=["empty", "unsorted", "overlapping", "past-the-end", "reserved-id"])
def test_read_corpus_rejects_a_bad_span_or_token(tmp_path, tokens, spans,
                                                 error, message):
    """Each span and token-id check of ``validate_utterance`` fires through
    ``read_corpus`` and names the utterance; the record is otherwise valid
    (8 frames, so frame 8 is past the last)."""
    path = tmp_path / "c.jsonl"
    rec = {"id": "bad7", "tokens": tokens, "alignments": spans,
           "frames": [[0.0, 0.0]] * 8}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(error, match=f"^bad7: {message}"):
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


@pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
def test_read_corpus_rejects_a_lazy_record_with_unusable_noise(tmp_path,
                                                               noise):
    """A lazy record's regeneration settings go through the same check."""
    path = tmp_path / "c.jsonl"
    write_corpus(path, gen_synthetic_corpus(CorpusConfig(num_utterances=1)),
                 CorpusConfig(num_utterances=1))
    rec = json.loads(path.read_text())
    rec["frames_seed"]["noise_std"] = noise
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(AlignmentError, match=f"^{rec['id']}: malformed "
                       "record: noise_std must be finite and >= 0"):
        read_corpus(path)
