"""Self-checks wiring the library's invariants to executable evidence.

Each check builds its own inputs from a seed, exercises one guarantee end
to end, and reports a result with a human-readable detail string. The
``verify`` CLI subcommand runs them at a fast scale; the acceptance test
suite runs the same functions at full scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .corpus import EOS, FIRST_TEXT_ID, PAD, CorpusConfig, gen_synthetic_corpus
from .engine import StrategyConfig, push_chunk, run_stream, session_new
from .layout import (
    ChunkingConfig,
    Position,
    assign_slots,
    build_cs,
    build_ss,
    chunk_bounds,
    sample_paradigm,
    stage_plan,
)
from .layout import text as text_pos
from .metrics import edit_distance
from .model import (
    ImmutabilityViolation,
    ModelConfig,
    RollbackPastChunkBoundary,
    SpeechSpan,
    TeacherOracle,
    ToyDecoder,
    make_boundary_oracle,
    masked_ce_loss,
)

__all__ = [
    "CheckResult",
    "check_cache_equivalence",
    "check_round_trip",
    "check_immutability",
    "check_boundary_recovery",
    "check_zero_added_latency",
    "check_beam_coherence",
    "check_compute_accounting",
    "check_metrics_oracle",
    "check_layout_structure",
    "run_battery",
    "BATTERY",
]

_SIZES = (8, 16, 25)
_CACHE_TOL = 1e-5  # relative error of chunked against one-shot forwards
_CACHE_TIME_BUDGET_S = 60.0
_BOUNDARY_WINDOW = 1
_LATENCY_CHUNK_FRAMES = 16
# 30000 draws put the +-5% band per paradigm about 6 standard deviations out
_SAMPLER_STEPS = 30000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _random_items(rng, n: int, frame_dim: int,
                  vocab: int) -> list[Position | SpeechSpan]:
    """Items for ``n`` positions: text tokens and speech spans of 1-4
    frames, the frame indices running on across spans."""
    items: list[Position | SpeechSpan] = []
    fidx = left = 0
    while left < n:
        if rng.random() < 0.4:
            items.append(text_pos(int(rng.integers(0, vocab))))
            left += 1
            continue
        span = min(int(rng.integers(1, 5)), n - left)
        items.append(SpeechSpan(fidx, rng.normal(size=(span, frame_dim))))
        fidx += span
        left += span
    return items


def check_cache_equivalence(num_models: int = 20, seed: int = 0) -> CheckResult:
    """Chunked decoding with the cache must match a one-shot forward."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 10]))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(num_models):
        heads = int(rng.choice([1, 2, 4]))
        d = int(rng.choice([8, 16, 32]))
        cfg = ModelConfig(
            vocab_size=32, embed_dim=d, num_layers=int(rng.integers(0, 3)),
            num_heads=heads, ffn_dim=2 * d, frame_dim=8, max_context=128,
            seed=int(rng.integers(1 << 30)),
        )
        model = ToyDecoder(cfg)
        items = _random_items(rng, int(rng.integers(24, 64)), cfg.frame_dim,
                              cfg.vocab_size)
        whole = model.forward_sequence(items)
        cache = model.new_cache()
        # cut between items, so a span is never split
        n = len(items)
        n_cuts = int(rng.integers(1, 5))
        cuts = sorted(rng.choice(np.arange(1, n), size=n_cuts, replace=False))
        spans = []
        lo = 0
        for c in [*cuts, n]:
            spans.append(items[lo:c])
            lo = int(c)
        parts = []
        for span in spans:
            x = model.embed_items(span, start=len(cache))
            parts.append(model.forward_embedded(x, cache))
        chunked = np.concatenate(parts, axis=0)
        rel = float(np.max(np.abs(chunked - whole))
                    / max(float(np.max(np.abs(whole))), 1e-12))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= _CACHE_TOL and elapsed < _CACHE_TIME_BUDGET_S
    return CheckResult(
        "cache_equivalence",
        ok,
        f"{num_models} models, worst relative error {worst:.2e} "
        f"(tol {_CACHE_TOL:.0e}), {elapsed:.1f}s",
    )


def check_round_trip(num_utterances: int = 200, seed: int = 0) -> CheckResult:
    """Greedy decoding of a layout's own teacher regenerates the layout."""
    cfg = CorpusConfig(num_utterances=num_utterances, seed=seed)
    utts = gen_synthetic_corpus(cfg)
    mismatches = 0
    pairs = 0
    for i, u in enumerate(utts):
        ck = ChunkingConfig(_SIZES[i % len(_SIZES)])
        for builder, strat in ((build_ss, "ss_greedy"),
                               (build_cs, "cs_fallback_greedy")):
            seq = builder(u, ck)
            model = TeacherOracle(seq, vocab_size=cfg.vocab_size)
            sess = session_new(model, ck, StrategyConfig(strat))
            hyp = run_stream(sess, u.frames)
            got = list(zip(sess.cache.kinds.decode(), sess.cache.values))
            want = [(p.kind, p.value) for p in seq.positions]
            pairs += 1
            if hyp != list(u.tokens) or got != want:
                mismatches += 1
    return CheckResult(
        "layout_engine_round_trip",
        mismatches == 0,
        f"{pairs} utterance/paradigm pairs, {mismatches} mismatches",
    )


def check_immutability(num_rollbacks: int = 2000, seed: int = 0) -> CheckResult:
    """Sealed cache prefixes stay bit-identical across rollback cycles."""
    cfg = ModelConfig(embed_dim=16, num_layers=1, num_heads=2, ffn_dim=16,
                      max_context=64, seed=seed)
    model = ToyDecoder(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    cache = model.new_cache()
    model.forward(cache, _random_items(rng, 12, cfg.frame_dim, cfg.vocab_size))
    cache.mark_chunk()
    mark, sealed = cache.mark, cache.sealed
    verified = 0
    for _ in range(num_rollbacks):
        model.forward(cache, [text_pos(int(rng.integers(0, 32))),
                              text_pos(PAD)])
        if cache.checksum(mark) != sealed:
            return CheckResult("immutability_rollback", False,
                               "sealed prefix changed during normal use")
        verified += 1
        cache.rollback(mark)

    guard_ok = False
    try:
        cache.rollback(mark - 1)
    except RollbackPastChunkBoundary:
        guard_ok = True

    # fault injection: flip one sealed value, the checksum must catch it
    saved = cache.k[0][0, 0]
    cache.k[0][0, 0] += 1.0
    fault_seen = cache.checksum(mark) != sealed
    cache.k[0][0, 0] = saved

    # and through the engine: corrupt below the mark mid-stream
    u = gen_synthetic_corpus(CorpusConfig(num_utterances=1, seed=seed))[0]
    ck = ChunkingConfig(16)
    teacher = TeacherOracle(build_cs(u, ck))
    sess = session_new(teacher, ck, StrategyConfig("cs_fallback_greedy"))
    bounds = chunk_bounds(u.num_frames, ck.chunk_frames)
    push_chunk(sess, u.frames[bounds[0][0]:bounds[0][1]],
               is_last=len(bounds) == 1)
    engine_fault = False
    if len(bounds) > 1:
        sess.cache.values[0] += 1  # corrupt a sealed speech position
        try:
            push_chunk(sess, u.frames[bounds[1][0]:bounds[1][1]],
                       is_last=len(bounds) == 2)
        except ImmutabilityViolation:
            engine_fault = True
    ok = verified >= num_rollbacks and guard_ok and fault_seen and engine_fault
    return CheckResult(
        "immutability_rollback",
        ok,
        f"{verified} rollbacks verified, boundary guard {guard_ok}, "
        f"fault injection caught {fault_seen and engine_fault}",
    )


def _boundary_run(utts):
    """Per chunk size: (ss errors, cs errors, analytic count, total tokens)."""
    suite = make_boundary_oracle(utts, _BOUNDARY_WINDOW, vocab_size=32)
    out = {}
    for n_frames in _SIZES:
        ck = ChunkingConfig(n_frames)
        ss_err = cs_err = analytic = total = 0
        for u in utts:
            bounds = chunk_bounds(u.num_frames, ck.chunk_frames)
            edge_frames = {hi - 1 for lo, hi in bounds[:-1]}
            analytic += sum(1 for a in u.alignments if a.end_frame in edge_frames)
            total += len(u.tokens)
            for strat, para in (("ss_greedy", "ss"),
                                ("cs_fallback_greedy", "cs")):
                sess = session_new(suite.bind(u, para), ck, StrategyConfig(strat))
                hyp = run_stream(sess, u.frames)
                errs = edit_distance(u.tokens, hyp).errors
                if para == "ss":
                    ss_err += errs
                else:
                    cs_err += errs
        out[n_frames] = (ss_err, cs_err, analytic, total)
    return out


def check_boundary_recovery(num_utterances: int = 120, seed: int = 0) -> CheckResult:
    """Fallback re-decoding heals exactly the chunk-edge confusions."""
    utts = gen_synthetic_corpus(CorpusConfig(num_utterances=num_utterances,
                                             seed=seed))
    runs = _boundary_run(utts)
    problems = []
    for n, (ss_err, cs_err, analytic, total) in runs.items():
        if ss_err != analytic:
            problems.append(f"chunk {n}: ss errors {ss_err} != analytic {analytic}")
        if cs_err != 0:
            problems.append(f"chunk {n}: cs errors {cs_err} != 0")
    wers = {n: runs[n][0] / runs[n][3] for n in _SIZES}
    if not (wers[8] >= wers[16] >= wers[25]):
        problems.append(f"ss WER not monotone in chunk length: {wers}")
    detail = ", ".join(
        f"N={n}: ss {runs[n][0]}/{runs[n][3]} cs {runs[n][1]}" for n in _SIZES
    )
    return CheckResult("boundary_recovery", not problems,
                       detail if not problems else "; ".join(problems))


def check_zero_added_latency(num_utterances: int = 120, seed: int = 0) -> CheckResult:
    """Provisional fallback emits in the same chunk as commit-as-you-go,
    and finalizes exactly one chunk later."""
    utts = gen_synthetic_corpus(CorpusConfig(num_utterances=num_utterances,
                                             seed=seed))
    suite = make_boundary_oracle(utts, 1, vocab_size=32)
    ck = ChunkingConfig(_LATENCY_CHUNK_FRAMES)
    problems = []
    provisionals = 0
    tokens = 0
    for u in utts:
        recs = {}
        for strat, para in (("ss_greedy", "ss"), ("cs_fallback_greedy", "cs")):
            sess = session_new(suite.bind(u, para), ck, StrategyConfig(strat))
            run_stream(sess, u.frames)
            recs[para] = [r for r in sess.records if not r.retracted]
        if len(recs["ss"]) != len(u.tokens) or len(recs["cs"]) != len(u.tokens):
            problems.append(f"{u.id}: emission count mismatch")
            continue
        tokens += len(u.tokens)
        for i in range(len(u.tokens)):
            a, b = recs["ss"][i], recs["cs"][i]
            if a.emit_chunk != b.emit_chunk:
                problems.append(f"{u.id}[{i}]: emit {b.emit_chunk} != {a.emit_chunk}")
            if b.provisional:
                provisionals += 1
                if b.finalize_chunk != b.emit_chunk + 1:
                    problems.append(f"{u.id}[{i}]: provisional lag != 1")
            elif b.finalize_chunk != b.emit_chunk:
                problems.append(f"{u.id}[{i}]: final emission lagged")
    ok = not problems and provisionals > 0
    return CheckResult(
        "zero_added_latency",
        ok,
        f"{tokens} tokens, {provisionals} provisional, emit chunks identical"
        if ok else "; ".join(problems[:4]) or "no provisional emissions seen",
    )


def check_beam_coherence(num_sessions: int = 30, seed: int = 0) -> CheckResult:
    """Width-1 beam equals greedy token for token; width-3 never scores
    below width-1 searching the same turn from the same state."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 12]))
    utts = gen_synthetic_corpus(
        CorpusConfig(num_utterances=num_sessions, seed=seed))
    suite = make_boundary_oracle(utts, 1, vocab_size=32)
    problems = []
    compared = 0
    turns_compared = 0
    for i, u in enumerate(utts):
        ck = ChunkingConfig(_SIZES[i % len(_SIZES)])
        use_toy = i % 2 == 0
        if use_toy:
            mcfg = ModelConfig(embed_dim=16, num_layers=1, num_heads=2,
                               ffn_dim=16, max_context=512,
                               seed=int(rng.integers(1 << 30)))
            mk = lambda para: ToyDecoder(mcfg)  # noqa: E731
        else:
            mk = lambda para: suite.bind(u, para)  # noqa: E731
        for base, beam, para in (("ss_greedy", "ss_beam", "ss"),
                                 ("cs_fallback_greedy", "cs_fallback_beam", "cs")):
            cap = 24
            s_greedy = session_new(mk(para), ck, StrategyConfig(
                base, max_decode_per_turn=cap))
            s_w1 = session_new(mk(para), ck, StrategyConfig(
                beam, beam_width=1, max_decode_per_turn=cap))
            s_w3 = session_new(mk(para), ck, StrategyConfig(
                beam, beam_width=3, max_decode_per_turn=cap))
            h_greedy = run_stream(s_greedy, u.frames)
            h_w1 = run_stream(s_w1, u.frames)
            compared += 1
            if h_w1 != h_greedy:
                problems.append(f"{u.id}/{beam}: width-1 diverged from greedy")
            e1 = [r.emit_chunk for r in s_w1.records]
            eg = [r.emit_chunk for r in s_greedy.records]
            if e1 != eg:
                problems.append(f"{u.id}/{beam}: width-1 emission chunks differ")
            # Dominance only holds when both widths search the same turn from
            # the same state, so replay each width-3 turn through a width-1
            # fork before pushing the real chunk.
            w1_cfg = StrategyConfig(beam, beam_width=1, max_decode_per_turn=cap)
            for t, (lo, hi) in enumerate(
                    chunk_bounds(u.num_frames, ck.chunk_frames)):
                is_last = hi == u.num_frames
                fork = s_w3.fork(w1_cfg)
                push_chunk(fork, u.frames[lo:hi], is_last=is_last)
                push_chunk(s_w3, u.frames[lo:hi], is_last=is_last)
                turns_compared += 1
                if s_w3.turns[-1].score < fork.turns[-1].score - 1e-9:
                    problems.append(
                        f"{u.id}/{beam} turn {t}: width-3 scored below width-1")
    return CheckResult(
        "beam_coherence",
        not problems,
        f"{compared} session pairs identical at width 1, width 3 not worse "
        f"on {turns_compared} same-state turns"
        if not problems else "; ".join(problems[:4]),
    )


def check_compute_accounting(
    num_utterances: int = 60, seed: int = 0,
) -> CheckResult:
    """Forward-position costs match their closed forms."""
    utts = gen_synthetic_corpus(CorpusConfig(num_utterances=num_utterances,
                                             seed=seed))
    suite = make_boundary_oracle(utts, 0, vocab_size=32)
    problems = []
    for i, u in enumerate(utts):
        ck = ChunkingConfig(_SIZES[i % len(_SIZES)])
        bounds = chunk_bounds(u.num_frames, ck.chunk_frames)
        slots_total = sum(ck.slots(hi - lo) for lo, hi in bounds)

        seq_ss = build_ss(u, ck)
        s_ss = session_new(TeacherOracle(seq_ss), ck, StrategyConfig("ss_greedy"))
        run_stream(s_ss, u.frames)
        if s_ss.stats.forward_positions != len(seq_ss.positions):
            problems.append(
                f"{u.id}: ss forwards {s_ss.stats.forward_positions} != "
                f"layout {len(seq_ss.positions)}")

        s_cs = session_new(TeacherOracle(build_cs(u, ck)), ck,
                           StrategyConfig("cs_fallback_greedy"))
        run_stream(s_cs, u.frames)
        bound = s_ss.stats.forward_positions + slots_total
        if s_cs.stats.forward_positions > bound:
            problems.append(
                f"{u.id}: cs forwards {s_cs.stats.forward_positions} > "
                f"ss + slots {bound}")

        s_ns = session_new(suite.bind(u, "ns"), ck,
                           StrategyConfig("ns_redecode_hold_n", hold_n=1))
        run_stream(s_ns, u.frames)
        expected_prefill = sum(hi + 1 for _, hi in bounds)
        if s_ns.stats.prefill_positions != expected_prefill:
            problems.append(
                f"{u.id}: ns prefill {s_ns.stats.prefill_positions} != "
                f"quadratic form {expected_prefill}")
        for r, (_, hi) in enumerate(bounds):
            if s_ns.turns[r].prefill != hi + 1:
                problems.append(f"{u.id}: ns round {r} prefill off")
                break
    return CheckResult(
        "compute_accounting",
        not problems,
        f"{num_utterances} utterances: ss exact, ns quadratic re-prefill, "
        "cs within one slot span per chunk"
        if not problems else "; ".join(problems[:4]),
    )


def _plain_levenshtein(a, b) -> int:
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i]
        for j in range(1, len(b) + 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (a[i - 1] != b[j - 1])))
        prev = cur
    return prev[-1]


def check_metrics_oracle(num_pairs: int = 200, seed: int = 0) -> CheckResult:
    """Edit distance against an independent reference; loss masking."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    problems = []
    for _ in range(num_pairs):
        a = [int(x) for x in rng.integers(0, 5, size=int(rng.integers(0, 13)))]
        b = [int(x) for x in rng.integers(0, 5, size=int(rng.integers(0, 13)))]
        c = edit_distance(a, b)
        ref = _plain_levenshtein(a, b)
        if c.errors != ref:
            problems.append(f"distance {c.errors} != reference {ref} on {a},{b}")
            break
    # pinned tie-breaks: substitution beats insertion beats deletion
    cases = [
        (edit_distance([1, 2], [3]), (1, 0, 1)),
        (edit_distance([1], [2, 3]), (1, 1, 0)),
        (edit_distance([1, 2, 3], [4, 5, 6]), (3, 0, 0)),
    ]
    for got, want in cases:
        if (got.substitutions, got.insertions, got.deletions) != want:
            problems.append(f"tie-break counts {got} != {want}")

    # masked positions must not influence the loss
    logits = rng.normal(size=(12, 8))
    targets = [None if i % 3 == 0 else int(rng.integers(0, 8))
               for i in range(12)]
    base = masked_ce_loss(logits, targets)
    noisy = logits.copy()
    for i, t in enumerate(targets):
        if t is None:
            noisy[i] += rng.normal(size=8) * 100
    if abs(masked_ce_loss(noisy, targets) - base) > 1e-12:
        problems.append("masked positions leaked into the loss")
    return CheckResult(
        "metrics_oracle",
        not problems,
        f"{num_pairs} pairs match reference, tie-breaks pinned, loss masked"
        if not problems else "; ".join(problems[:4]),
    )


def check_layout_structure(num_utterances: int = 100, seed: int = 0) -> CheckResult:
    """Static layout invariants, paradigm sampling, and the training plan."""
    utts = gen_synthetic_corpus(CorpusConfig(num_utterances=num_utterances,
                                             seed=seed))
    problems = []
    for i, u in enumerate(utts):
        ck = ChunkingConfig(_SIZES[i % len(_SIZES)])
        seq_ss = build_ss(u, ck)
        if sum(1 for t in seq_ss.targets if t == EOS) != 1:
            problems.append(f"{u.id}: ss eos count != 1")
        if any(p.kind == "t" and p.value == EOS for p in seq_ss.positions):
            problems.append(f"{u.id}: eos appeared as an input")
        seq_cs = build_cs(u, ck)
        if any(t == EOS for t in seq_cs.targets):
            problems.append(f"{u.id}: cs has an eos target")
        segments = assign_slots(u.alignments, ck, u.num_frames, masked=True)
        for (_, tseg), seg in zip(seq_cs.segments, segments):
            slot_vals = [seq_cs.positions[p].value for p in range(*tseg)]
            j = len(seg.tokens)
            if seg.masked:
                if j == 0 or slot_vals[j - 1] != PAD:
                    problems.append(f"{u.id}: masked slot is not pad")
                if any(v < FIRST_TEXT_ID for v in slot_vals[: j - 1]):
                    problems.append(f"{u.id}: committed slot not a real token")
            if any(v != PAD for v in slot_vals[j:]):
                problems.append(f"{u.id}: slot padding not pad")

    counts = {"ns": 0, "ss": 0, "cs": 0}
    for step in range(_SAMPLER_STEPS):
        counts[sample_paradigm(step, True, seed)] += 1
    third = _SAMPLER_STEPS // 3
    lo, hi = third - third // 20, third + third // 20
    for k, v in counts.items():
        if not (lo <= v <= hi):
            problems.append(f"paradigm {k} drawn {v} times outside [{lo},{hi}]")
    if any(sample_paradigm(s, False, seed) != "ns" for s in range(100)):
        problems.append("inactive chunk attention still sampled streaming")

    plan = stage_plan()
    want = [
        (1, False, True, False, ("ns",), False),
        (2, True, True, False, ("ns",), False),
        (3, False, False, True, ("ns",), False),
        (4, True, True, True, ("ns",), False),
        (5, True, True, True, ("ns", "ss", "cs"), True),
    ]
    got = [(s.stage, s.encoder_trainable, s.adapter_trainable,
            s.decoder_trainable, s.paradigms, s.chunk_attention_active)
           for s in plan]
    if got != want:
        problems.append("stage plan drifted from the five-stage schedule")
    return CheckResult(
        "layout_structure",
        not problems,
        f"{num_utterances} layouts, sampler counts {counts}, 5-stage plan"
        if not problems else "; ".join(problems[:4]),
    )


BATTERY = (
    check_cache_equivalence,
    check_round_trip,
    check_immutability,
    check_boundary_recovery,
    check_zero_added_latency,
    check_beam_coherence,
    check_compute_accounting,
    check_metrics_oracle,
    check_layout_structure,
)

_FULL_SCALE = {
    "check_cache_equivalence": {"num_models": 100},
    "check_round_trip": {"num_utterances": 1000},
    "check_immutability": {"num_rollbacks": 10000},
    "check_boundary_recovery": {"num_utterances": 200},
    "check_zero_added_latency": {"num_utterances": 200},
    "check_beam_coherence": {"num_sessions": 100},
    "check_compute_accounting": {"num_utterances": 200},
    "check_metrics_oracle": {"num_pairs": 500},
    "check_layout_structure": {"num_utterances": 200},
}


def run_battery(full: bool = False, seed: int = 0) -> list[CheckResult]:
    results = []
    for fn in BATTERY:
        kwargs = dict(_FULL_SCALE[fn.__name__]) if full else {}
        results.append(fn(seed=seed, **kwargs))
    return results
