"""Training-sequence construction for the three decoding paradigms.

A single utterance can be laid out three ways:

* non-streaming: all speech, then sos and the transcript, eos as the final
  target;
* standard streaming: speech chunks interleaved with fixed-size text slots,
  pad acting as both slot filler and turn-stop;
* context-aware streaming: the standard streaming layout with each
  non-terminal segment's last token masked to pad in the input and
  re-queued for the successor segment, which is what lets inference revise
  a chunk-final token one chunk later at no added emission latency.

Both streaming layouts come from one chunk assignment, ``assign_slots``,
with masking off (ss) or on (cs): a chunk of ``n`` frames owns
``ceil(n / ratio)`` text slots; tokens become due in the first chunk whose
end boundary lies past their final frame; overflow carries forward and any
remainder after the last chunk forms a speech-less flush segment.

Targets follow teacher forcing over the laid-out inputs. A text position
followed by speech (or by nothing) targets pad: the turn-stop. A text
position followed by the flush segment targets the flush's first token, so
generation flows through the boundary without waiting for audio that will
never arrive. In the context-aware layout the position before a masked slot
targets the masked token itself (the provisional prediction) and eos is
never a target; the standard streaming layout instead ends with exactly one
eos at the utterance's final stop position.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import EOS, FIRST_TEXT_ID, PAD, SOS, TokenAlignment, Utterance

__all__ = [
    "SpecialTokens",
    "ChunkingConfig",
    "Position",
    "speech",
    "text",
    "Segment",
    "MixedSequence",
    "chunk_bounds",
    "assign_slots",
    "build_ns",
    "build_ss",
    "build_cs",
    "sample_paradigm",
    "StageConfig",
    "stage_plan",
]

PARADIGMS = ("ns", "ss", "cs")


class SpecialTokens:
    """The reserved ids of ``corpus`` as one fixed value; it takes no
    arguments. ``session_new``, ``build_ns``, ``build_ss``, ``build_cs`` and
    ``make_boundary_oracle`` still accept one as ``sp``, and ignore it, for
    callers of the old signatures."""

    __slots__ = ()
    pad, sos, eos, first_text_id = PAD, SOS, EOS, FIRST_TEXT_ID


@dataclass(frozen=True)
class ChunkingConfig:
    chunk_frames: int
    speech_text_ratio: int = 2

    def __post_init__(self) -> None:
        if self.chunk_frames < 1 or self.speech_text_ratio < 1:
            raise ValueError("chunk_frames and speech_text_ratio must be >= 1")

    def slots(self, n_frames: int) -> int:
        """Text slot budget for a chunk of n_frames frames."""
        return math.ceil(n_frames / self.speech_text_ratio)


@dataclass(frozen=True, slots=True)
class Position:
    """One sequence position: a speech frame ("s") or a text token ("t").
    A model takes text positions as they are, one position each."""

    kind: str  # "s" | "t"
    value: int  # frame index or token id

    def __len__(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"{self.kind}:{self.value}"


def speech(frame_index: int) -> Position:
    return Position("s", frame_index)


@functools.cache
def text(token_id: int) -> Position:
    """Token ``token_id``'s position, one shared frozen value per id."""
    return Position("t", token_id)


# One shared speech position per frame index, grown on demand to the
# longest stream laid out so far (about 90 B per index). Positions are
# frozen, so every layout can hold the same objects.
_SPEECH: list[Position] = []


def _speech_run(lo: int, hi: int) -> list[Position]:
    if hi > len(_SPEECH):
        _SPEECH.extend(map(speech, range(len(_SPEECH), hi)))
    return _SPEECH[lo:hi]


@dataclass
class MixedSequence:
    positions: list[Position]
    targets: list[int | None]  # None = no loss at this position
    # ((speech_lo, speech_hi), (text_lo, text_hi)) position-index ranges,
    # half-open; together the segments tile the sequence.
    segments: list[tuple[tuple[int, int], tuple[int, int]]]
    paradigm: str = "ss"

    def __len__(self) -> int:
        return len(self.positions)


def chunk_bounds(total_frames: int, chunk_frames: int) -> list[tuple[int, int]]:
    if total_frames <= 0:
        return []
    return [
        (s, min(s + chunk_frames, total_frames))
        for s in range(0, total_frames, chunk_frames)
    ]


@dataclass
class Segment:
    """One chunk's share of the text slots.

    ``tokens`` are occurrence indices into the utterance token list, in
    emission order; ``slots`` is the padded width. With ``masked`` the last
    token shows as pad in the input. The flush segment has an empty frame
    range and no padding.
    """

    frames: tuple[int, int]  # half-open
    tokens: list[int]
    slots: int
    masked: bool = False


def assign_slots(
    alignments: Sequence[TokenAlignment],
    cfg: ChunkingConfig,
    total_frames: int,
    masked: bool = False,
) -> list[Segment]:
    """Chunk assignment with overflow carry and a terminal flush.

    A token is due in the first chunk whose end boundary lies strictly past
    its last frame, so a token ending exactly on a chunk's final frame
    belongs to that chunk. With ``masked`` (context-aware streaming) a
    non-terminal segment's last token is masked and re-queued at the front,
    re-appearing in the successor segment. The final chunk is terminal only
    when its take leaves slots to spare; a budget-full final take cannot
    prove the queue empty, so it masks and flushes like any other boundary.
    """
    bounds = chunk_bounds(total_frames, cfg.chunk_frames)
    segments: list[Segment] = []
    pending: list[int] = []  # every due token; the queue is pending[head:]
    head = i = 0
    for k, (lo, hi) in enumerate(bounds):
        while i < len(alignments) and alignments[i].end_frame < hi:
            pending.append(i)
            i += 1
        m = cfg.slots(hi - lo)
        take = pending[head:head + m]
        head += len(take)
        mask = masked and bool(take) and (k < len(bounds) - 1 or len(take) == m)
        if mask:
            head -= 1  # the masked token heads the queue again
        segments.append(Segment((lo, hi), take, m, mask))
    if i < len(alignments):
        raise ValueError(
            f"token {i} ends past the stream ({alignments[i].end_frame})")
    if head < len(pending):
        segments.append(Segment((total_frames, total_frames), pending[head:],
                                len(pending) - head))
    return segments


def _emit(utt: Utterance, segments: list[Segment], paradigm: str) -> MixedSequence:
    """Lay out positions and teacher-forcing targets from the segments, one
    segment at a time. The positions are shared frozen values, in a list of
    the layout's own.

    A chunk's last speech predicts its first slot: its first token (a
    masked one's hidden token), or pad. A token slot predicts the token
    after it; the last one predicts pad (the turn-stop) before filler,
    speech and at the end, and the flush's first token before the flush.
    Filler, the slots past a segment's tokens, carries no loss.
    """
    positions: list[Position] = []
    targets: list[int | None] = []
    ranges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    tokens, pad = utt.tokens, text(PAD)
    end = 0  # the positions laid out so far
    for k, seg in enumerate(segments):
        lo, hi = seg.frames
        s_lo, t_lo = end, end + hi - lo
        end = t_lo + seg.slots
        ranges.append(((s_lo, t_lo), (t_lo, end)))
        toks = [tokens[o] for o in seg.tokens]
        fill = seg.slots - len(toks)
        if hi > lo:
            positions += _speech_run(lo, hi)
            targets += [None] * (hi - lo - 1)
            targets.append(toks[0] if toks else PAD)
        if toks:
            if seg.masked:
                positions += map(text, toks[:-1])
                positions.append(pad)
            else:
                positions += map(text, toks)
            after = PAD
            if not fill and k + 1 < len(segments):
                nxt = segments[k + 1]
                if nxt.frames[0] == nxt.frames[1]:  # the flush
                    after = tokens[nxt.tokens[0]]
            targets += toks[1:]
            targets.append(after)
        if fill:
            positions += [pad] * fill
            targets += [None] * fill

    if paradigm == "ss" and segments:
        # Exactly one eos: on the final segment's last token, or on its last
        # speech frame when only silence remains.
        (_, s_hi), (t_lo, _) = ranges[-1]
        n = len(segments[-1].tokens)
        targets[t_lo + n - 1 if n else s_hi - 1] = EOS
    return MixedSequence(positions, targets, ranges, paradigm=paradigm)


def build_ns(utt: Utterance, sp=None) -> MixedSequence:
    """Non-streaming layout: speech, sos, transcript; eos as final target.
    An empty transcript lays out as its speech, then sos targeting eos."""
    positions = _speech_run(0, utt.num_frames)
    t_lo = len(positions)
    positions.append(text(SOS))
    positions += map(text, utt.tokens)
    targets: list[int | None] = [None] * len(positions)
    for i, tok in enumerate(utt.tokens):
        targets[t_lo + i] = tok
    targets[t_lo + len(utt.tokens)] = EOS
    seg = ((0, t_lo), (t_lo, len(positions)))
    return MixedSequence(positions, targets, [seg], paradigm="ns")


def build_ss(utt: Utterance, cfg: ChunkingConfig, sp=None) -> MixedSequence:
    """Standard streaming layout: interleaved chunks, pad turn-stops, one eos."""
    return _emit(utt, assign_slots(utt.alignments, cfg, utt.num_frames), "ss")


def build_cs(utt: Utterance, cfg: ChunkingConfig, sp=None) -> MixedSequence:
    """Context-aware streaming layout: masked carries, no eos anywhere."""
    segments = assign_slots(utt.alignments, cfg, utt.num_frames, masked=True)
    return _emit(utt, segments, "cs")


def sample_paradigm(step: int, chunk_attention_active: bool, seed: int) -> str:
    """Paradigm for a training step: uniform over ns/ss/cs when
    ``chunk_attention_active``, ns otherwise, deterministic in (seed, step).
    The flag only chooses whether streaming layouts are sampled: the model
    has one causal mask, and the interleaving enforces streaming."""
    if not chunk_attention_active:
        return "ns"
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, step]))
    return PARADIGMS[int(rng.integers(3))]


@dataclass(frozen=True)
class StageConfig:
    """One fine-tuning stage. ``chunk_attention_active`` only chooses
    whether streaming layouts are sampled: the model has one causal mask,
    and the interleaving enforces streaming."""

    stage: int
    encoder_trainable: bool
    adapter_trainable: bool
    decoder_trainable: bool
    paradigms: tuple[str, ...]
    chunk_attention_active: bool


def stage_plan() -> list[StageConfig]:
    """The five-stage fine-tuning schedule.

    Streaming paradigms join only in the final stage, the only one with
    ``chunk_attention_active``; earlier stages progressively
    unfreeze adapter, then encoder+adapter, then decoder, then everything.
    """
    return [
        StageConfig(1, False, True, False, ("ns",), False),
        StageConfig(2, True, True, False, ("ns",), False),
        StageConfig(3, False, False, True, ("ns",), False),
        StageConfig(4, True, True, True, ("ns",), False),
        StageConfig(5, True, True, True, ("ns", "ss", "cs"), True),
    ]
