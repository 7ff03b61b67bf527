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

Every greedy decode runs through one argmax loop, ``_greedy``: it stops on
pad or eos, or once it has emitted its token limit, and never forwards the
token that reached the limit. A streaming turn's slot phase limits it to
the chunk's slot budget or ``max_decode_per_turn``, whichever is smaller;
the standard layout then forwards that last token into its slot and the
context-aware one withholds it. Beam search has its own frontier loop
with the same limit and always pools the greedy rollout. On the final
chunk a turn that ran into its limit flushes on, still capped at
``max_decode_per_turn`` tokens for the whole turn; the same cap bounds an
audio-less final turn's drain and every non-streaming re-decode.
"""

from __future__ import annotations

import copy
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
    # the reduction loops ndarray.max and .sum run, minus their wrappers
    z = logits - np.maximum.reduce(logits)
    return z - np.log(np.add.reduce(np.exp(z)))


@dataclass
class _Hyp:
    """A slot-phase decode: one beam hypothesis, or a whole turn's result.

    ``stopped_via`` is the pad or eos the decode stopped on; it is None when
    the decode ran into its token limit (``budget_full``) or never started.
    ``first_values`` is None unless the final flush re-decoded the
    context-aware masked slot; then it holds the tokens as first decoded.
    """

    tokens: list[int]
    lp: float
    logits: np.ndarray | None
    cache: object = None
    budget_full: bool = False
    stopped_via: int | None = None
    first_values: list[int] | None = None


def _hyp_score(h: _Hyp) -> float:
    """Length-normalized log probability; a stop counts as an emission."""
    return h.lp / max(1, len(h.tokens) + (h.stopped_via is not None))


def _rank(h: _Hyp) -> tuple:
    return (-_hyp_score(h), tuple(h.tokens))


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
        self._count(len(items), bucket)
        return logits

    def _fwd_batch(self, caches: list,
                   items: list[StreamItem]) -> Sequence[np.ndarray]:
        """Decode one item onto each cache in a single model call, looping
        over ``forward`` for a model without ``forward_batch``; returns one
        row of logits per cache."""
        batch = getattr(self.model, "forward_batch", None)
        logits = (batch(caches, items) if batch is not None else
                  [self.model.forward(c, [it]) for c, it in zip(caches, items)])
        self._count(len(items), "decode")
        return logits

    def _count(self, n: int, bucket: str) -> None:
        self.stats.forward_positions += n
        if bucket == "prefill":
            self.stats.prefill_positions += n
        else:
            self.stats.decode_positions += n

    def _speech_items(self, frames: np.ndarray) -> list[StreamItem]:
        base = self.frames_seen
        return [
            StreamItem(speech_pos(base + i), frames[i])
            for i in range(len(frames))
        ]

    def fork(self, strategy: StrategyConfig | None = None) -> "StreamingSession":
        """Copy every piece of decoding state, sharing the model, so the
        copy can continue the stream independently; ``strategy`` swaps in
        another configuration of the same paradigm."""
        strategy = strategy or self.strategy
        _check_strategy(strategy, self.chunking)
        if PARADIGM_OF[strategy.name] != self.paradigm:
            raise ConfigMismatch(
                f"cannot fork a {self.paradigm} session as {strategy.name}")
        dup = copy.deepcopy(self, {id(self.model): self.model})
        dup.strategy = strategy
        return dup

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


def _check_strategy(strategy: StrategyConfig, chunking: ChunkingConfig) -> None:
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


def session_new(
    model,
    chunking: ChunkingConfig,
    strategy: StrategyConfig,
    sp: SpecialTokens | None = None,
) -> StreamingSession:
    sp = sp or SpecialTokens()
    _check_strategy(strategy, chunking)
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
# turn decoding: one greedy loop, beam search, the shared slot phase


def _greedy(session: StreamingSession, cache, logits: np.ndarray,
            limit: int) -> tuple[list[int], float, int | None, np.ndarray]:
    """Argmax decode from ``logits`` until pad or eos, or until ``limit``
    tokens are out.

    Returns ``(tokens, lp, stop, logits)``: ``lp`` includes the stop
    symbol's log probability, ``stop`` is None at the limit, and the token
    that reached the limit is not forwarded, so ``logits`` are then the ones
    that produced it.
    """
    sp = session.sp
    tokens: list[int] = []
    lp = 0.0
    while len(tokens) < limit:
        lps = _lps(logits)
        t = int(lps.argmax())
        lp += float(lps[t])
        if t == sp.pad or t == sp.eos:
            return tokens, lp, t, logits
        tokens.append(t)
        if len(tokens) < limit:
            logits = session._fwd(cache, [_text_item(t)], "decode")
    return tokens, lp, None, logits


def _turn_rollout(session: StreamingSession, cache, logits: np.ndarray,
                  budget: int) -> _Hyp:
    """Greedy slot-phase decode. The budget token is appended for the
    standard streaming layout (it legitimately fills the last slot) but
    withheld for the context-aware one, whose last slot is pad in every
    training picture."""
    limit = min(budget, session.strategy.max_decode_per_turn)
    tokens, lp, stop, logits = _greedy(session, cache, logits, limit)
    if stop is None:
        logits = (session._fwd(cache, [_text_item(tokens[-1])], "decode")
                  if session.paradigm == "ss" else None)
    return _Hyp(tokens, lp, logits, cache, budget_full=stop is None,
                stopped_via=stop)


def _beam_step(session: StreamingSession, frontier: list[_Hyp],
               pool: list[_Hyp], limit: int) -> list[_Hyp]:
    """Expand each frontier hypothesis by its ``beam_width`` best tokens.

    Stops, and expansions that reach ``limit``, go to ``pool``; the other
    expansions are returned as children. Every expansion that needs a
    forward (each child, and a standard streaming one that fills the last
    slot) gets a branched cache, and all of them are forwarded in one
    batch. Nothing bound here outlives the step, so pruned children free
    their caches before the next step branches.
    """
    sp = session.sp
    width = session.strategy.beam_width
    children: list[_Hyp] = []
    grown: list[_Hyp] = []
    for hyp in frontier:
        lps = _lps(hyp.logits)
        for t in (int(x) for x in np.argsort(-lps, kind="stable")[:width]):
            lp = hyp.lp + float(lps[t])
            if t == sp.pad or t == sp.eos:
                pool.append(_Hyp(list(hyp.tokens), lp, hyp.logits, hyp.cache,
                                 stopped_via=t))
                continue
            child = _Hyp(hyp.tokens + [t], lp, None, hyp.cache,
                         budget_full=len(hyp.tokens) + 1 >= limit)
            (pool if child.budget_full else children).append(child)
            if not child.budget_full or session.paradigm == "ss":
                child.cache = hyp.cache.branch()
                grown.append(child)
    if grown:
        logits = session._fwd_batch([h.cache for h in grown],
                                    [_text_item(h.tokens[-1]) for h in grown])
        for h, row in zip(grown, logits):
            h.logits = row
    return children


def beam_turn_decode(
    session: StreamingSession,
    first_logits: np.ndarray,
    budget: int,
) -> _Hyp:
    """Per-turn beam search over the slot phase, one batched forward per
    step.

    Candidates score by length-normalized log probability, counting a stop
    emission toward the length. The greedy rollout always enters the pool,
    last, so the winner never scores below it and an exact tie goes to the
    beam; other ties break toward the smaller token tuple. The winner's
    branched cache replaces the session cache.
    """
    width = session.strategy.beam_width
    limit = min(budget, session.strategy.max_decode_per_turn)
    frontier = [_Hyp([], 0.0, first_logits, session.cache)]
    pool: list[_Hyp] = []
    while frontier:
        frontier = sorted(_beam_step(session, frontier, pool, limit),
                          key=_rank)[:width]
    pool.append(_turn_rollout(session, session.cache.branch(), first_logits,
                              budget))
    winner = min(pool, key=_rank)
    session.cache = winner.cache
    return winner


def _flush_continue(session: StreamingSession, res: _Hyp) -> None:
    """Final-turn continuation past the slot limit, up to the turn's cap.

    Standard streaming keeps decoding from the limit token's logits. The
    context-aware layout first materializes the masked last slot as pad,
    re-decodes the provisional token from it (same audio, so at worst a
    confirmation), and appends it for real before it continues.
    """
    sp = session.sp
    cache = session.cache
    logits = res.logits
    if session.paradigm == "cs":
        logits = session._fwd(cache, [_text_item(sp.pad)], "decode")
        t2 = int(np.argmax(logits))
        if t2 == sp.pad or t2 == sp.eos:
            res.stopped_via, res.logits = t2, logits
            return
        res.first_values = list(res.tokens)
        res.tokens[-1] = t2
        logits = session._fwd(cache, [_text_item(t2)], "decode")
    more, _, res.stopped_via, res.logits = _greedy(
        session, cache, logits,
        session.strategy.max_decode_per_turn - len(res.tokens))
    res.tokens += more
    if res.first_values is not None:
        res.first_values += more


def _slot_phase(session: StreamingSession, logits: np.ndarray | None,
                budget: int, is_last: bool) -> _Hyp:
    """Decode one streaming turn's text after its prefill.

    A turn with audio runs beam search or the greedy rollout over the
    chunk's ``budget`` slots. An audio-less turn (no slots) decodes only if
    it is the final one: it drains from the logits the last prefill left
    (for the context-aware layout, the blanked slot's, which regenerate the
    pending token). Scores the turn, counts an early eos, flushes a final
    turn that ran into its limit, and keeps the logits for a later
    audio-less turn.
    """
    if budget == 0:
        res = _Hyp([], 0.0, logits, session.cache)
        if is_last and logits is not None:
            res.tokens, res.lp, res.stopped_via, res.logits = _greedy(
                session, session.cache, logits,
                session.strategy.max_decode_per_turn)
    elif session.strategy.name.endswith("_beam"):
        res = beam_turn_decode(session, logits, budget)
    else:
        res = _turn_rollout(session, session.cache, logits, budget)
    session._turn_score = _hyp_score(res)
    if res.stopped_via == session.sp.eos and not is_last:
        session.stats.early_eos += 1
    if is_last and res.budget_full:
        _flush_continue(session, res)
    session.last_logits = res.logits
    return res


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
    logits = session.last_logits
    if n:
        logits = session._fwd(session.cache, session._speech_items(frames),
                              "prefill")
    res = _slot_phase(session, logits, budget, is_last)
    touched = [session._new_record(t, t, k, k) for t in res.tokens]
    # pad out the remaining slot positions so chunk strides stay exact
    fill = max(0, budget - len(res.tokens))
    if fill:
        session._fwd(session.cache, [_text_item(sp.pad)] * fill, "prefill")
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
    res = _slot_phase(session, logits, budget, is_last)

    touched: list[EmissionRecord] = []
    tokens = res.tokens
    firsts = res.tokens if res.first_values is None else res.first_values
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
        fill = 0 if res.budget_full else max(0, budget - len(res.tokens))
        if fill:
            session._fwd(session.cache, [_text_item(sp.pad)] * fill, "prefill")
    elif res.tokens:
        # the turn's final emission stays provisional until the next rewind
        last_rec = touched[-1]
        last_rec.provisional = True
        last_rec.finalize_chunk = None
        # the pending record is always the newest one
        session.pending_record = len(session.records) - 1
    session.last_turn_decoded = list(res.tokens)
    session.last_turn_slots = budget
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
    hyp = _greedy(session, cache, logits, st.max_decode_per_turn)[0]

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
