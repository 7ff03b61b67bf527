"""Streaming decode engine over chunked audio.

One session consumes audio chunk by chunk and emits token records under a
strategy:

* ``ss_greedy`` / ``ss_beam``: commit-as-you-go. Each turn decodes into the
  chunk's text slots and every emission is final immediately.
* ``cs_fallback_greedy`` / ``cs_fallback_beam``: same cadence, but the last
  token of each turn stays provisional. The next turn rewinds the cache to
  the chunk boundary, re-presents the committed prefix with the provisional
  slot blanked to pad, and re-decodes it with one more chunk of audio in
  context, so boundary mistakes get one chance to heal at no added latency.
* ``ns_redecode_hold_n`` / ``ns_redecode_local_agreement`` /
  ``ns_redecode_wait_k``: re-run a full non-streaming decode from scratch at
  every arrival and commit a stable prefix. Quadratic in stream length;
  kept as the re-decoding baseline family.

Cache discipline, which the accounting tests pin down exactly:

* every position appended to the cache is forwarded exactly once;
* the first decode of a turn reads the logits the speech prefill already
  produced, so it costs nothing extra;
* turn-stop pads and slot padding are appended wherever the training
  layouts materialize them as inputs (standard streaming pads every slot;
  the context-aware layout instead rewrites the whole slot span on the
  next turn's revision), and end-of-sequence is never appended;
* rollbacks never cross the most recent chunk mark, and a checksum taken
  at the mark is re-verified before every rewind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .layout import ChunkingConfig, SpecialTokens, chunk_bounds
from .layout import speech as speech_pos
from .layout import text as text_pos
from .model import ImmutabilityViolation, StreamItem

__all__ = [
    "STRATEGIES",
    "PARADIGM_OF",
    "ConfigMismatch",
    "PushAfterFinish",
    "StrategyConfig",
    "EmissionRecord",
    "SessionStats",
    "StreamingSession",
    "session_new",
    "push_chunk",
    "fallback_rewind",
    "beam_turn_decode",
    "run_stream",
    "final_hypothesis",
    "collect_stats",
]

STRATEGIES = (
    "ss_greedy",
    "ss_beam",
    "cs_fallback_greedy",
    "cs_fallback_beam",
    "ns_redecode_hold_n",
    "ns_redecode_local_agreement",
    "ns_redecode_wait_k",
)

PARADIGM_OF = {
    "ss_greedy": "ss",
    "ss_beam": "ss",
    "cs_fallback_greedy": "cs",
    "cs_fallback_beam": "cs",
    "ns_redecode_hold_n": "ns",
    "ns_redecode_local_agreement": "ns",
    "ns_redecode_wait_k": "ns",
}


class ConfigMismatch(ValueError):
    """Session configuration is internally inconsistent."""


class PushAfterFinish(RuntimeError):
    """A chunk arrived after the final chunk was already processed."""


@dataclass
class StrategyConfig:
    name: str
    beam_width: int = 1
    hold_n: int = 1
    wait_k: int = 1
    max_decode_per_turn: int = 256
    # optional pin: a strategy tuned for one chunk size refuses another
    chunk_frames: int | None = None


@dataclass
class EmissionRecord:
    """Lifecycle of one emitted token.

    ``emit_chunk`` is the turn the token first appeared; ``finalize_chunk``
    the turn it became immutable (None while still provisional). ``token``
    is the final value, ``first_token`` the value at first emission;
    ``revised`` marks a fallback that changed the value, ``retracted`` a
    fallback that withdrew the emission entirely.
    """

    token: int
    first_token: int
    emit_chunk: int
    finalize_chunk: int | None
    provisional: bool = False
    revised: bool = False
    retracted: bool = False

    @property
    def retracted_value(self) -> int | None:
        """The discarded first guess, present only when a fallback changed
        the token."""
        return self.first_token if self.revised else None


@dataclass
class SessionStats:
    turns: int = 0
    forward_positions: int = 0
    prefill_positions: int = 0
    decode_positions: int = 0
    cache_reused_positions: int = 0
    rollback_count: int = 0
    rollback_positions: int = 0
    checksum_checks: int = 0
    revised: int = 0
    retracted: int = 0
    early_eos: int = 0
    per_turn: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        d = self.__dict__.copy()
        d["per_turn"] = [dict(t) for t in self.per_turn]
        return d


def _text_item(token_id: int) -> StreamItem:
    return StreamItem(text_pos(token_id))


def _lps(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


@dataclass
class _TurnResult:
    tokens: list[int]
    first_values: list[int]
    lp: float
    emissions: int
    budget_full: bool
    stopped_via: int | None
    logits: np.ndarray | None


class StreamingSession:
    """Mutable state of one utterance being decoded chunk by chunk."""

    def __init__(
        self,
        model,
        chunking: ChunkingConfig,
        strategy: StrategyConfig,
        sp: SpecialTokens,
    ):
        self.model = model
        self.chunking = chunking
        self.strategy = strategy
        self.sp = sp
        self.paradigm = PARADIGM_OF[strategy.name]
        self.cache = model.new_cache()
        self.records: list[EmissionRecord] = []
        self.stats = SessionStats()
        self.turn_index = 0
        self.frames_seen = 0
        self.finished = False
        # context-aware bookkeeping for the next turn's rewind
        self.last_turn_decoded: list[int] = []
        self.last_turn_slots = 0
        self.stored_checksum: int | None = None
        self.pending_record: int | None = None
        # logits left over at turn end, the seed for an audio-less flush
        self.last_logits: np.ndarray | None = None
        # re-decoding baseline state
        self.ns_frames: list[np.ndarray] = []
        self.ns_prev_hyp: list[int] = []
        self.ns_committed = 0
        self._turn_score = 0.0

    # -- low-level forward with accounting

    def _fwd(self, cache, items: Sequence[StreamItem], bucket: str) -> np.ndarray:
        logits = self.model.forward(cache, items)
        n = len(items)
        self.stats.forward_positions += n
        if bucket == "prefill":
            self.stats.prefill_positions += n
        else:
            self.stats.decode_positions += n
        return logits

    def _speech_items(self, frames: np.ndarray) -> list[StreamItem]:
        base = self.frames_seen
        return [
            StreamItem(speech_pos(base + i), frames[i])
            for i in range(len(frames))
        ]

    # -- record helpers

    def _new_record(self, token: int, first: int, chunk: int,
                    finalize: int | None) -> EmissionRecord:
        rec = EmissionRecord(
            token=token, first_token=first, emit_chunk=chunk,
            finalize_chunk=finalize,
            revised=token != first,
        )
        self.records.append(rec)
        return rec


def session_new(
    model,
    chunking: ChunkingConfig,
    strategy: StrategyConfig,
    sp: SpecialTokens | None = None,
) -> StreamingSession:
    sp = sp or SpecialTokens()
    if strategy.name not in STRATEGIES:
        raise ConfigMismatch(f"unknown strategy {strategy.name!r}")
    if strategy.beam_width < 1:
        raise ConfigMismatch("beam_width must be >= 1")
    if strategy.beam_width > 1 and not strategy.name.endswith("_beam"):
        raise ConfigMismatch(f"{strategy.name} does not use a beam")
    if strategy.hold_n < 0:
        raise ConfigMismatch("hold_n must be >= 0")
    if strategy.wait_k < 0:
        raise ConfigMismatch("wait_k must be >= 0")
    if strategy.max_decode_per_turn < 1:
        raise ConfigMismatch("max_decode_per_turn must be >= 1")
    if (strategy.chunk_frames is not None
            and strategy.chunk_frames != chunking.chunk_frames):
        raise ConfigMismatch(
            f"strategy pinned to {strategy.chunk_frames}-frame chunks but "
            f"the session uses {chunking.chunk_frames}")
    if not hasattr(model, "forward") or not hasattr(model, "new_cache"):
        raise ConfigMismatch("model must provide new_cache() and forward()")
    vocab = getattr(model, "vocab_size", None)
    if vocab is not None and vocab <= max(sp.pad, sp.sos, sp.eos):
        raise ConfigMismatch("model vocabulary too small for special tokens")
    return StreamingSession(model, chunking, strategy, sp)


# --------------------------------------------------------------------------
# fallback rewind


def fallback_rewind(session: StreamingSession) -> int:
    """Roll the cache back to the most recent chunk mark.

    Verifies the checksum stored when the mark was set; any change to the
    prefix below the mark is an immutability violation. Returns the number
    of positions removed (the previous turn's decoded appends).
    """
    cache = session.cache
    if not cache.chunk_marks:
        return 0
    mark = cache.chunk_marks[-1]
    session.stats.checksum_checks += 1
    if session.stored_checksum is not None:
        if cache.checksum(mark) != session.stored_checksum:
            raise ImmutabilityViolation(
                f"cache prefix below mark {mark} changed since it was sealed"
            )
    removed = len(cache) - mark
    cache.rollback(mark)
    session.stats.rollback_count += 1
    session.stats.rollback_positions += removed
    return removed


# --------------------------------------------------------------------------
# turn decoding: greedy rollout, beam, flush continuation

# Slot-phase decode. The budget token is appended for the standard
# streaming layout (it legitimately fills the last slot) but withheld for
# the context-aware one, whose last slot is pad in every training picture.


def _turn_rollout(
    session: StreamingSession,
    cache,
    logits: np.ndarray,
    budget: int,
    is_last: bool,
    paradigm: str,
) -> _TurnResult:
    sp = session.sp
    tokens: list[int] = []
    lp_total = 0.0
    cap = session.strategy.max_decode_per_turn
    while True:
        lps = _lps(logits)
        t = int(np.argmax(lps))
        if t == sp.pad or t == sp.eos:
            lp_total += float(lps[t])
            return _TurnResult(tokens, list(tokens), lp_total,
                               len(tokens) + 1, False, t, logits)
        tokens.append(t)
        lp_total += float(lps[t])
        if len(tokens) >= budget or len(tokens) >= cap:
            if paradigm == "ss":
                logits = session._fwd(cache, [_text_item(t)], "decode")
            else:
                logits = None
            return _TurnResult(tokens, list(tokens), lp_total,
                               len(tokens), True, None, logits)
        logits = session._fwd(cache, [_text_item(t)], "decode")


def _greedy_drain(session: StreamingSession, cache, logits) -> _TurnResult:
    """Text-only continuation for a final chunk that carries no audio: keep
    decoding from wherever the last turn's logits left off until a stop."""
    sp = session.sp
    cap = session.strategy.max_decode_per_turn
    tokens: list[int] = []
    lp = 0.0
    while True:
        lps = _lps(logits)
        t = int(np.argmax(lps))
        if t == sp.pad or t == sp.eos:
            lp += float(lps[t])
            return _TurnResult(tokens, list(tokens), lp,
                               len(tokens) + 1, False, t, logits)
        tokens.append(t)
        lp += float(lps[t])
        if len(tokens) >= cap:
            return _TurnResult(tokens, list(tokens), lp,
                               len(tokens), False, None, logits)
        logits = session._fwd(cache, [_text_item(t)], "decode")


def _flush_continue(
    session: StreamingSession,
    cache,
    res: _TurnResult,
    paradigm: str,
) -> None:
    """Final-turn continuation past a full slot budget.

    Standard streaming keeps decoding from the budget token's logits. The
    context-aware layout first materializes the masked last slot as pad,
    re-decodes the provisional token from it (same audio, so at worst a
    confirmation), appends it for real, and then continues.
    """
    sp = session.sp
    cap = session.strategy.max_decode_per_turn
    logits = res.logits
    if paradigm == "cs":
        logits = session._fwd(cache, [_text_item(sp.pad)], "decode")
        t2 = int(np.argmax(logits))
        if t2 == sp.pad or t2 == sp.eos:
            res.stopped_via = t2
            res.logits = logits
            return
        if t2 != res.tokens[-1]:
            res.tokens[-1] = t2
        logits = session._fwd(cache, [_text_item(t2)], "decode")
    while logits is not None:
        t = int(np.argmax(logits))
        if t == sp.pad or t == sp.eos:
            res.stopped_via = t
            break
        res.tokens.append(t)
        res.first_values.append(t)
        if len(res.tokens) >= cap:
            break
        logits = session._fwd(cache, [_text_item(t)], "decode")
    res.logits = logits


@dataclass
class _BeamHyp:
    cache: object
    tokens: list[int]
    lp: float
    logits: np.ndarray | None
    emissions: int = 0
    budget_full: bool = False
    stopped_via: int | None = None


def _hyp_score(h: _BeamHyp) -> float:
    n = h.emissions if (h.stopped_via is not None or h.budget_full) else max(
        1, len(h.tokens))
    return h.lp / max(1, n)


def beam_turn_decode(
    session: StreamingSession,
    first_logits: np.ndarray,
    budget: int,
    is_last: bool,
) -> _TurnResult:
    """Per-turn beam search over the slot phase.

    Candidates score by length-normalized log probability, counting a stop
    emission toward the length. The greedy rollout always enters the pool,
    so the winner never scores below it; ties break toward the smaller
    token tuple. The winner's branched cache replaces the session cache.
    """
    sp = session.sp
    paradigm = session.paradigm
    width = session.strategy.beam_width
    cap = session.strategy.max_decode_per_turn
    root = _BeamHyp(cache=session.cache, tokens=[], lp=0.0, logits=first_logits)
    frontier = [root]
    pool: list[_BeamHyp] = []
    while frontier:
        children: list[_BeamHyp] = []
        for hyp in frontier:
            lps = _lps(hyp.logits)
            order = np.argsort(-lps, kind="stable")[:width]
            for t in (int(x) for x in order):
                logp = float(lps[t])
                if t == sp.pad or t == sp.eos:
                    pool.append(_BeamHyp(
                        cache=hyp.cache, tokens=list(hyp.tokens),
                        lp=hyp.lp + logp, logits=hyp.logits,
                        emissions=len(hyp.tokens) + 1, stopped_via=t))
                    continue
                ntok = len(hyp.tokens) + 1
                if ntok >= budget or ntok >= cap:
                    if paradigm == "ss":
                        branch = hyp.cache.branch()
                        logits = session._fwd(branch, [_text_item(t)], "decode")
                    else:
                        branch, logits = hyp.cache, None
                    pool.append(_BeamHyp(
                        cache=branch, tokens=hyp.tokens + [t],
                        lp=hyp.lp + logp, logits=logits,
                        emissions=ntok, budget_full=True))
                    continue
                branch = hyp.cache.branch()
                logits = session._fwd(branch, [_text_item(t)], "decode")
                children.append(_BeamHyp(
                    cache=branch, tokens=hyp.tokens + [t],
                    lp=hyp.lp + logp, logits=logits))
        children.sort(key=lambda h: (-_hyp_score(h), tuple(h.tokens)))
        frontier = children[:width]

    greedy = _rollout_as_hyp(session, budget, is_last, paradigm, first_logits)
    pool.append(greedy)
    winner = min(pool, key=lambda h: (-_hyp_score(h), tuple(h.tokens)))
    session.cache = winner.cache
    return _TurnResult(
        tokens=list(winner.tokens), first_values=list(winner.tokens),
        lp=winner.lp, emissions=winner.emissions or len(winner.tokens),
        budget_full=winner.budget_full, stopped_via=winner.stopped_via,
        logits=winner.logits,
    )


def _rollout_as_hyp(session, budget, is_last, paradigm, first_logits) -> _BeamHyp:
    branch = session.cache.branch()
    res = _turn_rollout(session, branch, first_logits, budget, is_last, paradigm)
    return _BeamHyp(
        cache=branch, tokens=list(res.tokens), lp=res.lp, logits=res.logits,
        emissions=res.emissions, budget_full=res.budget_full,
        stopped_via=res.stopped_via,
    )


# --------------------------------------------------------------------------
# per-paradigm turn handlers


def _push_ss(session: StreamingSession, frames: np.ndarray,
             is_last: bool) -> list[EmissionRecord]:
    sp = session.sp
    k = session.turn_index
    n = len(frames)
    if k > 0:
        session.stats.cache_reused_positions += len(session.cache)
    budget = session.chunking.slots(n)
    if n:
        logits = session._fwd(session.cache, session._speech_items(frames),
                              "prefill")
    else:
        logits = session.last_logits
    if n == 0:
        if is_last and logits is not None:
            res = _greedy_drain(session, session.cache, logits)
        else:
            res = _TurnResult([], [], 0.0, 0, False, None, logits)
    elif session.strategy.name == "ss_beam":
        res = beam_turn_decode(session, logits, budget, is_last)
    else:
        res = _turn_rollout(session, session.cache, logits, budget,
                            is_last, "ss")
    session._turn_score = res.lp / max(1, res.emissions)
    if res.stopped_via == sp.eos and not is_last:
        session.stats.early_eos += 1
    if is_last and res.budget_full:
        _flush_continue(session, session.cache, res, "ss")
    touched = [
        session._new_record(t, f, k, k)
        for t, f in zip(res.tokens, res.first_values)
    ]
    # pad out the remaining slot positions so chunk strides stay exact
    fill = max(0, budget - len(res.tokens))
    if fill:
        session._fwd(session.cache, [_text_item(sp.pad)] * fill, "prefill")
    session.last_logits = res.logits
    return touched


def _push_cs(session: StreamingSession, frames: np.ndarray,
             is_last: bool) -> list[EmissionRecord]:
    sp = session.sp
    k = session.turn_index
    n = len(frames)
    cache = session.cache
    logits = None
    if k > 0:
        fallback_rewind(session)
        session.stats.cache_reused_positions += len(cache)
        revised = session.last_turn_decoded[:-1]
        span = [_text_item(t) for t in revised]
        span += [_text_item(sp.pad)] * (session.last_turn_slots - len(revised))
        if span:
            logits = session._fwd(cache, span, "prefill")
    budget = session.chunking.slots(n)
    if n:
        logits = session._fwd(cache, session._speech_items(frames), "prefill")
    cache.mark_chunk()
    session.stored_checksum = cache.checksum(cache.chunk_marks[-1])
    if n == 0:
        # audio-less turn: the revised span ends on the blanked slot, whose
        # logits regenerate the pending token, so a final chunk can flush
        if is_last and logits is not None:
            res = _greedy_drain(session, cache, logits)
        else:
            res = _TurnResult([], [], 0.0, 0, False, None, logits)
    elif session.strategy.name == "cs_fallback_beam":
        res = beam_turn_decode(session, logits, budget, is_last)
        cache = session.cache  # beam promoted the winner's branch
    else:
        res = _turn_rollout(session, cache, logits, budget, is_last, "cs")
    session._turn_score = res.lp / max(1, res.emissions)
    if res.stopped_via == sp.eos and not is_last:
        session.stats.early_eos += 1
    if is_last and res.budget_full:
        _flush_continue(session, cache, res, "cs")

    touched: list[EmissionRecord] = []
    tokens, firsts = res.tokens, res.first_values
    resolve_pending = bool(tokens) or is_last
    if session.pending_record is not None and resolve_pending:
        rec = session.records[session.pending_record]
        rec.finalize_chunk = k
        if tokens:
            if tokens[0] != rec.token:
                rec.revised = True
                session.stats.revised += 1
                rec.token = tokens[0]
        else:
            rec.retracted = True
            session.stats.retracted += 1
        touched.append(rec)
        session.pending_record = None
        tokens, firsts = tokens[1:], firsts[1:]
    for t, f in zip(tokens, firsts):
        rec = session._new_record(t, f, k, k)
        if rec.revised:
            session.stats.revised += 1
        touched.append(rec)

    if is_last:
        fill = 0 if res.budget_full else budget - min(len(res.tokens), budget)
        if fill:
            session._fwd(cache, [_text_item(sp.pad)] * fill, "prefill")
    elif res.tokens:
        # the turn's final emission stays provisional until the next rewind
        last_rec = touched[-1]
        last_rec.provisional = True
        last_rec.finalize_chunk = None
        # the pending record is always the newest one
        session.pending_record = len(session.records) - 1
    session.last_turn_decoded = list(res.tokens)
    session.last_turn_slots = budget
    session.last_logits = res.logits
    return touched


def _push_ns(session: StreamingSession, frames: np.ndarray,
             is_last: bool) -> list[EmissionRecord]:
    sp = session.sp
    k = session.turn_index
    st = session.strategy
    session.ns_frames.append(np.asarray(frames))
    cache = session.model.new_cache()
    items: list[StreamItem] = []
    gidx = 0
    for block in session.ns_frames:
        for row in block:
            items.append(StreamItem(speech_pos(gidx), row))
            gidx += 1
    items.append(_text_item(sp.sos))
    logits = session._fwd(cache, items, "prefill")
    hyp: list[int] = []
    while True:
        t = int(np.argmax(logits))
        if t == sp.eos or t == sp.pad:
            break
        hyp.append(t)
        if len(hyp) >= st.max_decode_per_turn:
            break
        logits = session._fwd(cache, [_text_item(t)], "decode")

    if is_last:
        target = len(hyp)
    elif st.name == "ns_redecode_hold_n":
        target = len(hyp) - st.hold_n
    elif st.name == "ns_redecode_local_agreement":
        prev = session.ns_prev_hyp
        target = 0
        for a, b in zip(prev, hyp):
            if a != b:
                break
            target += 1
    else:  # ns_redecode_wait_k
        per = session.chunking.slots(session.chunking.chunk_frames)
        target = (k + 1 - st.wait_k) * per
    commit = max(session.ns_committed, min(max(0, target), len(hyp)))
    touched = [
        session._new_record(hyp[i], hyp[i], k, k)
        for i in range(session.ns_committed, commit)
    ]
    session.ns_committed = commit
    session.ns_prev_hyp = hyp
    return touched


# --------------------------------------------------------------------------
# public session API


def push_chunk(session: StreamingSession, frames: np.ndarray,
               is_last: bool = False) -> list[EmissionRecord]:
    """Feed the next chunk of audio; returns the records touched this turn."""
    if session.finished:
        raise PushAfterFinish("stream already finished")
    frames = np.asarray(frames)
    if frames.size == 0:
        frames = frames.reshape(0, 0)  # audio-less turn: flush-only
    elif frames.ndim != 2:
        raise ValueError("frames must be a [n, frame_dim] array")
    before_fwd = session.stats.forward_positions
    before_pre = session.stats.prefill_positions
    session._turn_score = 0.0
    handler = {"ss": _push_ss, "cs": _push_cs, "ns": _push_ns}[session.paradigm]
    touched = handler(session, frames, is_last)
    session.stats.per_turn.append({
        "prefill": session.stats.prefill_positions - before_pre,
        "decode": (session.stats.forward_positions - before_fwd)
        - (session.stats.prefill_positions - before_pre),
        "score": session._turn_score,
    })
    session.stats.turns += 1
    session.frames_seen += len(frames)
    session.turn_index += 1
    if is_last:
        session.finished = True
    return touched


def run_stream(session: StreamingSession, frames: np.ndarray) -> list[int]:
    """Push a whole utterance through in chunks; returns the hypothesis."""
    frames = np.asarray(frames)
    bounds = chunk_bounds(len(frames), session.chunking.chunk_frames)
    if not bounds:
        push_chunk(session, frames, is_last=True)
    for lo, hi in bounds:
        push_chunk(session, frames[lo:hi], is_last=hi == len(frames))
    return final_hypothesis(session)


def final_hypothesis(session: StreamingSession) -> list[int]:
    return [r.token for r in session.records if not r.retracted]


def collect_stats(session: StreamingSession) -> SessionStats:
    return session.stats
