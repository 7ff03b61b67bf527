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
* the first decode of a turn reads the logits its prefill already
  produced, so it costs nothing extra; a context-aware turn forwards its
  re-presented slot span and its chunk's speech in that one call;
* a chunk's speech reaches the model as one ``SpeechSpan``, none for a
  chunk without rows, and counts as its frames; a text token as the
  layout's own shared ``Position``, ``layout.text(t)``;
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
with the same limit and always pools the greedy rollout; it grows its
hypotheses as a token tree in the session cache and scores each
expansion with ``model._log_softmax``, the one log-softmax, which
``masked_ce_loss`` uses too. On the final chunk a turn that filled its slot
budget flushes on, still capped at ``max_decode_per_turn`` tokens for the
whole turn; a turn the cap stopped first emits its tokens as decoded. The
same cap bounds an audio-less final turn's drain and every non-streaming
re-decode.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import EOS, PAD, SOS
from .layout import ChunkingConfig, Position, chunk_bounds
from .layout import text as text_pos
from .model import SpeechSpan, _log_softmax

__all__ = [
    "STRATEGIES", "PARADIGM_OF", "ConfigMismatch", "PushAfterFinish",
    "StrategyConfig", "EmissionRecord", "TurnRecord", "SessionStats",
    "StreamingSession", "session_new", "push_chunk", "fallback_rewind",
    "beam_turn_decode", "run_stream", "final_hypothesis",
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

# a strategy's paradigm is its name's prefix: ss, cs or ns
PARADIGM_OF = {name: name[:2] for name in STRATEGIES}


class ConfigMismatch(ValueError):
    """Session configuration is internally inconsistent."""


class PushAfterFinish(RuntimeError):
    """A chunk arrived after the final chunk was already processed."""


@dataclass(frozen=True)
class StrategyConfig:
    """A decoding strategy: checked as it is built, immutable after."""

    name: str
    beam_width: int = 1
    hold_n: int = 1
    wait_k: int = 1
    max_decode_per_turn: int = 256

    def __post_init__(self) -> None:
        if self.name not in STRATEGIES:
            raise ConfigMismatch(f"unknown strategy {self.name!r}")
        if self.beam_width < 1:
            raise ConfigMismatch("beam_width must be >= 1")
        if self.beam_width > 1 and not self.name.endswith("_beam"):
            raise ConfigMismatch(f"{self.name} does not use a beam")
        if self.hold_n < 0:
            raise ConfigMismatch("hold_n must be >= 0")
        if self.wait_k < 0:
            raise ConfigMismatch("wait_k must be >= 0")
        if self.max_decode_per_turn < 1:
            raise ConfigMismatch("max_decode_per_turn must be >= 1")


# slots: a session keeps one record per token and one per turn
@dataclass(slots=True)
class EmissionRecord:
    """Lifecycle of one emitted token.

    ``emit_chunk`` is the turn the token first appeared; ``finalize_chunk``
    the turn it became immutable (None while still provisional). ``token``
    is the final value, ``first_token`` the value at first emission;
    ``revised`` marks a fallback that changed the value, ``retracted`` a
    fallback that withdrew the emission entirely.

    ``provisional`` marks the last token of a context-aware turn, which the
    next turn rewinds and re-decodes. Only the newest record can be pending.
    A re-decode whose only token is the pending one reopens it: it stays
    provisional for one more turn and can be revised again, so
    ``revised`` is a flag while ``SessionStats.revised`` counts revision
    events.
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


@dataclass(slots=True)
class TurnRecord:
    """One ``push_chunk`` call, appended to ``session.turns`` as it starts.

    ``frames`` is the half-open range of stream frames the chunk carried
    and ``slots`` its text slot budget. ``prefill`` and ``decode`` count the
    positions forwarded; ``reused`` the cached positions the turn started
    from; ``rolled_back`` the positions the fallback rewind removed (None
    without a rewind) and ``checksum_verified`` whether it compared the
    sealed checksum. ``tokens`` is the turn's decode, a final turn's flush
    past its slots included (a re-decoding baseline's whole hypothesis),
    and ``stop`` (pad, eos, or None at the token limit) is where it ended;
    ``score`` is the slot phase's alone, taken before that flush.
    ``emitted``, ``revised`` and ``retracted`` index ``session.records``.
    """

    frames: tuple[int, int]
    is_last: bool
    slots: int
    prefill: int = 0
    decode: int = 0
    reused: int = 0
    rolled_back: int | None = None
    checksum_verified: bool = False
    tokens: tuple[int, ...] = ()
    stop: int | None = None
    score: float = 0.0
    emitted: tuple[int, ...] = ()
    revised: tuple[int, ...] = ()
    retracted: tuple[int, ...] = ()


@dataclass(frozen=True)
class SessionStats:
    """Counters folded from a session's turn records, a fresh snapshot on
    every read of ``StreamingSession.stats``. ``revised`` and ``retracted``
    count events, not flagged records; ``early_eos`` counts streaming turns
    that stopped on eos before the final chunk."""

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


@dataclass
class _Hyp:
    """A slot-phase decode: one beam hypothesis, or a whole turn's result.

    ``stopped_via`` is the pad or eos the decode stopped on; it is None when
    the decode ran into its token limit (``budget_full``) or never started.
    ``first_values`` is None unless the final flush re-decoded the
    context-aware masked slot; then it holds the tokens as first decoded.
    ``rows`` are the session cache's rows of the tokens forwarded, the
    hypothesis's path in a beam turn's token tree.
    """

    tokens: list[int]
    lp: float
    logits: np.ndarray | None
    rows: tuple[int, ...] = ()
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

    def __init__(self, model, chunking: ChunkingConfig,
                 strategy: StrategyConfig):
        self.model = model
        self.chunking = chunking
        self.strategy = strategy
        self.paradigm = PARADIGM_OF[strategy.name]
        self.cache = model.new_cache()
        self.records: list[EmissionRecord] = []
        self.turns: list[TurnRecord] = []
        # logits left over at turn end, the seed for an audio-less flush
        self.last_logits: np.ndarray | None = None
        # re-decoding baseline: one speech span per chunk so far
        self.ns_items: list[SpeechSpan] = []

    @property
    def stats(self) -> SessionStats:
        turns = self.turns
        return SessionStats(
            turns=len(turns),
            forward_positions=sum(t.prefill + t.decode for t in turns),
            prefill_positions=sum(t.prefill for t in turns),
            decode_positions=sum(t.decode for t in turns),
            cache_reused_positions=sum(t.reused for t in turns),
            rollback_count=sum(t.rolled_back is not None for t in turns),
            rollback_positions=sum(t.rolled_back or 0 for t in turns),
            checksum_checks=sum(t.checksum_verified for t in turns),
            revised=sum(len(t.revised) for t in turns),
            retracted=sum(len(t.retracted) for t in turns),
            early_eos=sum(t.stop == EOS and not t.is_last for t in turns),
        )

    @property
    def frames_seen(self) -> int:
        return self.turns[-1].frames[1] if self.turns else 0

    @property
    def finished(self) -> bool:
        return bool(self.turns) and self.turns[-1].is_last

    # -- low-level forward with accounting

    def _fwd(self, cache, items: Sequence[Position | SpeechSpan],
             bucket: str) -> np.ndarray:
        """Forward ``items`` onto ``cache`` and count them in the turn: a
        prefill the positions its items appended, ``len(item)`` each, and
        a decode its rows, one text item each."""
        if bucket == "prefill":
            before = len(cache)
            logits = self.model.forward(cache, items)
            self.turns[-1].prefill += len(cache) - before
        else:
            logits = self.model.forward(cache, items)
            self.turns[-1].decode += len(items)
        return logits

    def fork(self, strategy: StrategyConfig | None = None) -> "StreamingSession":
        """Copy every piece of decoding state, sharing the model, so the
        copy can continue the stream independently; ``strategy`` swaps in
        another configuration of the same paradigm."""
        strategy = strategy or self.strategy
        if PARADIGM_OF[strategy.name] != self.paradigm:
            raise ConfigMismatch(
                f"cannot fork a {self.paradigm} session as {strategy.name}")
        _check_beam_model(self.model, strategy)
        dup = copy.deepcopy(self, {id(self.model): self.model})
        dup.strategy = strategy
        return dup

    # -- record helpers

    def _new_record(self, token: int, first: int) -> EmissionRecord:
        """Emit a record in the current turn, final as of that turn."""
        turn, k = self.turns[-1], len(self.turns) - 1
        turn.emitted += (len(self.records),)
        if token != first:
            turn.revised += (len(self.records),)
        rec = EmissionRecord(token, first, k, k, revised=token != first)
        self.records.append(rec)
        return rec


def session_new(model, chunking: ChunkingConfig, strategy: StrategyConfig,
                sp=None) -> StreamingSession:
    if not hasattr(model, "forward") or not hasattr(model, "new_cache"):
        raise ConfigMismatch("model must provide new_cache() and forward()")
    _check_beam_model(model, strategy)
    vocab = getattr(model, "vocab_size", None)
    if vocab is not None and vocab <= max(PAD, SOS, EOS):
        raise ConfigMismatch("model vocabulary too small for special tokens")
    return StreamingSession(model, chunking, strategy)


def _check_beam_model(model, strategy: StrategyConfig) -> None:
    if strategy.name.endswith("_beam") and not hasattr(model, "forward_tree"):
        raise ConfigMismatch(f"{strategy.name} needs a model with forward_tree()")


# --------------------------------------------------------------------------
# fallback rewind


def fallback_rewind(session: StreamingSession) -> int:
    """Rewind the cache to its sealed chunk mark and record it in the turn.

    ``KVCache.rewind``/``SymbolicCache.rewind`` verify the checksum sealed
    at the mark first. Returns the number of positions removed (the
    previous turn's decoded appends); an unsealed cache is left alone.
    """
    cache, turn = session.cache, session.turns[-1]
    if cache.sealed is None:
        return 0
    turn.checksum_verified = True
    turn.rolled_back = cache.rewind()
    return turn.rolled_back


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

    A step picks the first maximum logit and computes only its log
    probability. That equals ``_log_softmax(logits)[t]`` bit for bit: the shifted
    logit at the maximum is exactly 0, so the same sum is reduced.
    """
    tokens: list[int] = []
    lp = 0.0
    while len(tokens) < limit:
        t = int(logits.argmax())
        lp -= float(np.log(np.add.reduce(np.exp(logits - logits[t]))))
        if t == PAD or t == EOS:
            return tokens, lp, t, logits
        tokens.append(t)
        if len(tokens) < limit:
            logits = session._fwd(cache, [text_pos(t)], "decode")
    return tokens, lp, None, logits


def _turn_rollout(session: StreamingSession, logits: np.ndarray,
                  budget: int) -> _Hyp:
    """Greedy slot-phase decode on the session cache. The budget token is
    appended for the standard streaming layout (it legitimately fills the
    last slot) but withheld for the context-aware one, whose last slot is
    pad in every training picture."""
    cache = session.cache
    start = len(cache)
    limit = min(budget, session.strategy.max_decode_per_turn)
    tokens, lp, stop, logits = _greedy(session, cache, logits, limit)
    if stop is None:
        logits = (session._fwd(cache, [text_pos(tokens[-1])], "decode")
                  if session.paradigm == "ss" else None)
    return _Hyp(tokens, lp, logits, tuple(range(start, len(cache))),
                budget_full=stop is None, stopped_via=stop)


def _beam_step(session: StreamingSession, root: int, frontier: list[_Hyp],
               pool: list[_Hyp], limit: int) -> list[_Hyp]:
    """Expand each frontier hypothesis by its ``beam_width`` best tokens.

    Stops, and expansions that reach ``limit``, go to ``pool``; the other
    expansions are returned as children. Every expansion that needs a
    forward (each child, and a standard streaming one that fills the last
    slot) becomes a row of the token tree above ``root``, all of them
    forwarded as one span whose rows each see their own path.
    """
    width = session.strategy.beam_width
    children: list[_Hyp] = []
    grown: list[_Hyp] = []
    # the whole frontier at once: each row reduces and sorts alone
    lps = _log_softmax(np.array([hyp.logits for hyp in frontier]))
    best = np.argsort(-lps, axis=-1, kind="stable")[:, :width].tolist()
    for hyp, row, tokens in zip(frontier, lps.tolist(), best):
        for t in tokens:
            lp = hyp.lp + row[t]
            if t == PAD or t == EOS:
                pool.append(_Hyp(list(hyp.tokens), lp, hyp.logits, hyp.rows,
                                 stopped_via=t))
                continue
            child = _Hyp(hyp.tokens + [t], lp, None, hyp.rows,
                         budget_full=len(hyp.tokens) + 1 >= limit)
            (pool if child.budget_full else children).append(child)
            if not child.budget_full or session.paradigm == "ss":
                grown.append(child)
    if grown:
        start = len(session.cache)
        logits = session.model.forward_tree(
            session.cache, root, [text_pos(h.tokens[-1]) for h in grown],
            [h.rows for h in grown])
        session.turns[-1].decode += len(grown)
        for i, (h, row) in enumerate(zip(grown, logits)):
            h.logits, h.rows = row, h.rows + (start + i,)
    return children


def beam_turn_decode(session: StreamingSession, first_logits: np.ndarray,
                     budget: int) -> _Hyp:
    """Per-turn beam search over the slot phase, as a token tree in the
    session cache.

    The greedy rollout runs first, as lone rows above the turn's root;
    each beam step then forwards its expansions as one span of tree rows
    above those. Candidates score by length-normalized log probability,
    counting a stop emission toward the length. The greedy rollout always
    enters the pool, last, so the winner never scores below it and an
    exact tie goes to the beam; other ties break toward the smaller token
    tuple. The winner's rows then move down to the root and the rest of
    the tree is cut.
    """
    root = len(session.cache)
    rollout = _turn_rollout(session, first_logits, budget)
    width = session.strategy.beam_width
    limit = min(budget, session.strategy.max_decode_per_turn)
    frontier = [_Hyp([], 0.0, first_logits)]
    pool: list[_Hyp] = []
    while frontier:
        frontier = sorted(_beam_step(session, root, frontier, pool, limit),
                          key=_rank)[:width]
    pool.append(rollout)
    winner = min(pool, key=_rank)
    session.cache.compact(root, winner.rows)
    return winner


def _flush_continue(session: StreamingSession, res: _Hyp) -> None:
    """Final-turn continuation past a full slot budget, up to the turn's cap.

    Standard streaming keeps decoding from the limit token's logits. The
    context-aware layout first materializes the masked last slot as pad,
    re-decodes the provisional token from it (same audio, so at worst a
    confirmation), and appends it for real before it continues.
    """
    cache = session.cache
    logits = res.logits
    if session.paradigm == "cs":
        logits = session._fwd(cache, [text_pos(PAD)], "decode")
        t2 = int(np.argmax(logits))
        if t2 == PAD or t2 == EOS:
            res.stopped_via, res.logits = t2, logits
            return
        res.first_values = list(res.tokens)
        res.tokens[-1] = t2
        logits = session._fwd(cache, [text_pos(t2)], "decode")
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
    pending token). Scores the turn, flushes a final turn that filled its
    slot budget (one the cap stopped first has nothing left to flush),
    records the tokens and the stop in the turn record, and keeps the
    logits for a later audio-less turn (a pad fill after it replaces them
    with its own).
    """
    if budget == 0:
        res = _Hyp([], 0.0, logits)
        if is_last and logits is not None:
            res.tokens, res.lp, res.stopped_via, res.logits = _greedy(
                session, session.cache, logits,
                session.strategy.max_decode_per_turn)
    elif session.strategy.name.endswith("_beam"):
        res = beam_turn_decode(session, logits, budget)
    else:
        res = _turn_rollout(session, logits, budget)
    turn = session.turns[-1]
    turn.score = _hyp_score(res)
    cap = session.strategy.max_decode_per_turn
    if is_last and res.budget_full and budget <= cap:
        _flush_continue(session, res)
    turn.tokens, turn.stop = tuple(res.tokens), res.stopped_via
    session.last_logits = res.logits
    return res


# --------------------------------------------------------------------------
# turn handlers: streaming (ss and cs) and re-decoding (ns)


def _push_streaming(session: StreamingSession, frames: np.ndarray,
                    is_last: bool) -> list[EmissionRecord]:
    """One standard or context-aware streaming turn.

    A context-aware turn first rewinds the previous turn's decode and
    prefills its slot span again, its tokens but the last and pad after
    them, ahead of the chunk's speech, in one call. It then seals the
    chunk mark, and its slot phase settles the pending record. A turn
    with nothing to prefill decodes from the logits the last turn left.
    """
    turns, records = session.turns, session.records
    turn, k = turns[-1], len(turns) - 1
    cs = session.paradigm == "cs"
    items: list[Position | SpeechSpan] = []
    if cs and k > 0:
        fallback_rewind(session)
        prev = turns[-2]
        items = [text_pos(t) for t in prev.tokens[:-1]]
        items += [text_pos(PAD)] * (prev.slots - len(items))
    turn.reused = len(session.cache)
    if len(frames):
        items.append(SpeechSpan(turn.frames[0], frames))
    logits = (session._fwd(session.cache, items, "prefill") if items
              else session.last_logits)
    if cs:
        session.cache.mark_chunk()
    res = _slot_phase(session, logits, turn.slots, is_last)

    touched: list[EmissionRecord] = []
    tokens = res.tokens
    firsts = res.tokens if res.first_values is None else res.first_values
    # only a context-aware turn leaves a pending record, always the newest
    if records and records[-1].finalize_chunk is None and (tokens or is_last):
        rec = records[-1]
        rec.finalize_chunk = k
        if not tokens:
            rec.retracted = True
            turn.retracted += (len(records) - 1,)
        elif tokens[0] != rec.token:
            rec.revised = True
            rec.token = tokens[0]
            turn.revised += (len(records) - 1,)
        touched.append(rec)
        tokens, firsts = tokens[1:], firsts[1:]
    touched += [session._new_record(t, f) for t, f in zip(tokens, firsts)]

    if cs and not is_last:
        if res.tokens:
            # the turn's final emission stays provisional until the next rewind
            touched[-1].provisional = True
            touched[-1].finalize_chunk = None
    elif not (cs and res.budget_full):
        # pad out the remaining slot positions so chunk strides stay exact
        fill = turn.slots - len(res.tokens)
        if fill > 0:
            session.last_logits = session._fwd(
                session.cache, [text_pos(PAD)] * fill, "prefill")
    return touched


def _push_ns(session: StreamingSession, frames: np.ndarray,
             is_last: bool) -> list[EmissionRecord]:
    turns, st = session.turns, session.strategy
    turn, k = turns[-1], len(turns) - 1
    spans = session.ns_items
    if len(frames):
        spans = spans + [SpeechSpan(turn.frames[0], frames)]
    cache = session.cache
    cache.rollback(0)  # a fresh decode, not a fallback: rolled_back stays None
    logits = session._fwd(cache, spans + [text_pos(SOS)], "prefill")
    # a chunk joins the history only once its forward has run, so one that
    # raises does not fail every later turn
    session.ns_items = spans
    hyp = _greedy(session, cache, logits, st.max_decode_per_turn)[0]
    turn.tokens = tuple(hyp)

    if is_last:
        target = len(hyp)
    elif st.name == "ns_redecode_hold_n":
        target = len(hyp) - st.hold_n
    elif st.name == "ns_redecode_local_agreement":
        prev = turns[-2].tokens if k else []
        target = 0
        for a, b in zip(prev, hyp):
            if a != b:
                break
            target += 1
    else:  # ns_redecode_wait_k
        per = session.chunking.slots(session.chunking.chunk_frames)
        target = (k + 1 - st.wait_k) * per
    # every record is a commit, so the commit point is the record count
    committed = len(session.records)
    commit = max(committed, min(max(0, target), len(hyp)))
    return [session._new_record(t, t) for t in hyp[committed:commit]]


# --------------------------------------------------------------------------
# public session API


def push_chunk(session: StreamingSession, frames: np.ndarray,
               is_last: bool = False) -> list[EmissionRecord]:
    """Feed the next chunk of audio; returns the records touched this turn.

    The turn's ``TurnRecord`` is appended to ``session.turns`` before it
    runs, so a turn that raises stays there as far as it got. A chunk
    without rows is an audio-less (flush-only) turn.
    """
    if session.finished:
        raise PushAfterFinish("stream already finished")
    frames = np.asarray(frames)
    if frames.shape[:1] != (0,) and (frames.ndim != 2 or frames.shape[1] < 1):
        raise ValueError("frames must be a [n, frame_dim] array, frame_dim >= 1")
    lo = session.frames_seen
    session.turns.append(TurnRecord((lo, lo + len(frames)), is_last,
                                    session.chunking.slots(len(frames))))
    handler = _push_ns if session.paradigm == "ns" else _push_streaming
    return handler(session, frames, is_last)


def run_stream(session: StreamingSession, frames: np.ndarray) -> list[int]:
    """Push a whole utterance through in chunks; returns the hypothesis."""
    frames = np.asarray(frames)
    # a zero-frame utterance still gets its one (audio-less, final) turn
    bounds = chunk_bounds(len(frames), session.chunking.chunk_frames)
    for lo, hi in bounds or [(0, 0)]:
        push_chunk(session, frames[lo:hi], is_last=hi == len(frames))
    return final_hypothesis(session)


def final_hypothesis(session: StreamingSession) -> list[int]:
    return [r.token for r in session.records if not r.retracted]
