"""Synthetic corpora with token-level frame alignments, as JSON Lines.

Everything downstream (chunk assignment, interleaved layouts, latency
accounting) reads the per-token frame spans kept here: each token owns one
inclusive frame span, the spans are sorted, do not overlap, and end inside
the stream. ``read_corpus`` checks that on every utterance it loads.

This module owns the reserved token ids: ``PAD``, ``SOS`` and ``EOS``
(0, 1, 2) are the layout specials every other module reads from here, and
text starts at ``FIRST_TEXT_ID``; no corpus token is below it.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# The reserved ids, owned here so corpus generation does not depend on
# layout code; layout, model, engine and verify all read these.
PAD, SOS, EOS = 0, 1, 2
FIRST_TEXT_ID = 3

__all__ = [
    "PAD",
    "SOS",
    "EOS",
    "FIRST_TEXT_ID",
    "AlignmentError",
    "OverlappingSpans",
    "TokenAlignment",
    "Utterance",
    "CorpusConfig",
    "make_codebook",
    "gen_synthetic_corpus",
    "write_corpus",
    "read_corpus",
    "validate_utterance",
]


class AlignmentError(ValueError):
    """Malformed alignment input."""


class OverlappingSpans(AlignmentError):
    """Token spans are out of order or overlap."""


@dataclass(frozen=True)
class TokenAlignment:
    token_id: int
    start_frame: int
    end_frame: int  # inclusive


@dataclass
class Utterance:
    id: str
    tokens: list[int]
    alignments: list[TokenAlignment]
    frames: np.ndarray  # [num_frames, frame_dim], float64

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])


@dataclass(frozen=True)
class CorpusConfig:
    num_utterances: int = 200
    vocab_size: int = 32
    frames_per_second: float = 25.0
    min_tokens: int = 5
    max_tokens: int = 20
    frames_per_token_mean: float = 4.0
    noise_std: float = 0.05
    frame_dim: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_utterances < 0:
            raise ValueError("num_utterances must be >= 0")
        if self.vocab_size <= FIRST_TEXT_ID:
            raise ValueError("vocab_size must exceed the reserved special ids")
        if not (1 <= self.min_tokens <= self.max_tokens):
            raise ValueError("need 1 <= min_tokens <= max_tokens")
        if not (math.isfinite(self.frames_per_token_mean)
                and self.frames_per_token_mean >= 2):
            raise ValueError("frames_per_token_mean must be finite and >= 2")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError("noise_std must be finite and >= 0")
        if self.frame_dim < 1:
            raise ValueError("frame_dim must be >= 1")


def make_codebook(seed: int, vocab_size: int, frame_dim: int) -> np.ndarray:
    """Fixed per-token frame embeddings, derived only from (seed, vocab, dim)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    return rng.uniform(-1.0, 1.0, size=(vocab_size, frame_dim))


def _token_length_bounds(mean: float) -> tuple[int, int]:
    m = int(round(mean))
    return max(1, m - 1), m + 1


def _gen_frames(
    cfg: CorpusConfig,
    index: int,
    alignments: Sequence[TokenAlignment],
    num_frames: int,
    codebook: np.ndarray,
) -> np.ndarray:
    # Frames draw from a stream separate from the structure stream so that
    # lazily stored corpora can regenerate them from (seed, index) alone.
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, index]))
    frames = np.zeros((num_frames, cfg.frame_dim), dtype=np.float64)
    for al in alignments:
        frames[al.start_frame : al.end_frame + 1] = codebook[al.token_id]
    if cfg.noise_std > 0:
        frames += rng.normal(0.0, cfg.noise_std, size=frames.shape)
    return frames


def _gen_structure(
    cfg: CorpusConfig, index: int
) -> tuple[list[int], list[TokenAlignment], int]:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, index]))
    n = int(rng.integers(cfg.min_tokens, cfg.max_tokens + 1))
    tokens = [int(t) for t in rng.integers(FIRST_TEXT_ID, cfg.vocab_size, n)]
    lo, hi = _token_length_bounds(cfg.frames_per_token_mean)
    lengths = rng.integers(lo, hi + 1, n)
    alignments: list[TokenAlignment] = []
    at = 0
    for tid, ln in zip(tokens, lengths):
        alignments.append(TokenAlignment(tid, at, at + int(ln) - 1))
        at += int(ln)
    # 1..2 trailing silence frames keep the last token end strictly inside
    # the stream, so a full-context decode always sees audio past it.
    trailing = int(rng.integers(1, 3))
    return tokens, alignments, at + trailing


def gen_synthetic_corpus(cfg: CorpusConfig) -> list[Utterance]:
    """Deterministic synthetic corpus: contiguous token spans plus noise.

    Each token occupies a contiguous frame span whose vectors are its
    codebook row plus gaussian noise; 1..2 trailing frames are noise only.
    Byte-identical output for identical config.
    """
    codebook = make_codebook(cfg.seed, cfg.vocab_size, cfg.frame_dim)
    utts = []
    for i in range(cfg.num_utterances):
        tokens, alignments, num_frames = _gen_structure(cfg, i)
        frames = _gen_frames(cfg, i, alignments, num_frames, codebook)
        utts.append(
            Utterance(
                id=f"utt{i:05d}",
                tokens=tokens,
                alignments=alignments,
                frames=frames,
            )
        )
    return utts


def write_corpus(
    path: str | Path,
    utts: Iterable[Utterance],
    cfg: CorpusConfig | None = None,
    inline_frames: bool = False,
) -> None:
    """JSON Lines, one utterance per line.

    With ``inline_frames`` the frame matrix is stored row-major; otherwise a
    frames_seed record carries everything needed to regenerate the frames
    bit-exactly (requires ``cfg``).
    """
    if not inline_frames and cfg is None:
        raise ValueError("lazy frame storage needs the corpus config")
    with open(path, "w", encoding="utf-8") as fh:
        for i, u in enumerate(utts):
            rec: dict = {
                "id": u.id,
                "tokens": u.tokens,
                "alignments": [[a.start_frame, a.end_frame] for a in u.alignments],
            }
            if inline_frames:
                rec["frames"] = [[float(x) for x in row] for row in u.frames]
                rec["frame_dim"] = int(u.frames.shape[1])
            else:
                assert cfg is not None
                rec["num_frames"] = u.num_frames
                rec["frames_seed"] = {
                    "seed": cfg.seed,
                    "index": i,
                    "noise_std": cfg.noise_std,
                    "frame_dim": cfg.frame_dim,
                    "vocab_size": cfg.vocab_size,
                }
            fh.write(json.dumps(rec) + "\n")


def _utterance_of(rec: dict) -> Utterance:
    # token ids and frame indices index arrays, so they must be integers
    tokens = [operator.index(t) for t in rec["tokens"]]
    alignments = [
        TokenAlignment(tid, operator.index(s), operator.index(e))
        for tid, (s, e) in zip(tokens, rec["alignments"])
    ]
    if "frames" in rec:
        frames = np.asarray(rec["frames"], dtype=np.float64)
        # Python's json reads NaN and Infinity, which no frame may hold
        if not np.isfinite(frames).all():
            raise ValueError("frames must be finite")
        if not len(frames):  # rows without columns stay invalid
            frames = frames.reshape(0, rec.get("frame_dim", 0))
    else:
        fs = rec["frames_seed"]
        cfg = CorpusConfig(num_utterances=1, **{
            k: fs[k] for k in ("vocab_size", "noise_std", "frame_dim", "seed")})
        codebook = make_codebook(cfg.seed, cfg.vocab_size, cfg.frame_dim)
        frames = _gen_frames(cfg, fs["index"], alignments, rec["num_frames"],
                             codebook)
    return Utterance(rec["id"], tokens, alignments, frames)


def read_corpus(path: str | Path) -> list[Utterance]:
    """Read a JSON Lines corpus; every utterance is validated as it loads.
    A record that cannot be read is an AlignmentError naming its id, or its
    line number when it has none."""
    utts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"line {lineno}"
            try:
                rec = json.loads(line)
                where = rec.get("id", where)
                u = _utterance_of(rec)
            except KeyError as exc:
                raise AlignmentError(f"{where}: no {exc} field") from None
            except (AttributeError, IndexError, TypeError, ValueError) as exc:
                raise AlignmentError(f"{where}: malformed record: {exc}") from None
            validate_utterance(u)
            utts.append(u)
    return utts


def validate_utterance(u: Utterance) -> None:
    """Raise AlignmentError unless every token has one sorted,
    non-overlapping span inside the stream and no token is a reserved id,
    and ValueError for frames that are not a [num_frames, frame_dim] matrix
    with frame_dim >= 1 (a zero-frame utterance may have no columns).
    ``read_corpus`` runs it on every utterance it loads."""
    if u.frames.ndim != 2 or (u.num_frames and not u.frames.shape[1]):
        raise ValueError(f"{u.id}: frames of shape {u.frames.shape} are not "
                         "a [num_frames, frame_dim >= 1] matrix")
    if len(u.tokens) != len(u.alignments):
        raise AlignmentError(f"{u.id}: tokens/alignments length mismatch")
    prev_end = -1
    for al in u.alignments:
        if al.start_frame > al.end_frame:
            raise AlignmentError(f"{u.id}: empty span")
        if al.start_frame <= prev_end:
            raise OverlappingSpans(f"{u.id}: unsorted or overlapping spans")
        prev_end = al.end_frame
    if u.alignments and u.alignments[-1].end_frame >= u.num_frames:
        raise AlignmentError(f"{u.id}: alignment past the last frame")
    for t in u.tokens:
        if t < FIRST_TEXT_ID:
            raise AlignmentError(f"{u.id}: reserved id {t} used as token")
