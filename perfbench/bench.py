"""Workloads, set-up, the timed decode loop and the end-to-end metrics.

The loop drives the public path ``streamasr decode`` takes: ``session_new``,
``push_chunk`` per chunk, ``final_hypothesis``, then ``edit_distance`` and
``emission_latency``. Library functions are looked up through their modules
at call time, so the tracer in ``spans.py`` can wrap them from outside.

Load model: a closed loop times compute (chunk k+1 is pushed as soon as turn
k returns); latency is then replayed against the real-time schedule, where
chunk k is due at (k+1)*chunk_ms, turn k starts at max(due_k, finish_{k-1})
and finishes at its start plus its measured ``push_chunk`` time.
"""

from __future__ import annotations

import os

# One process, one thread: keep BLAS from spreading small matmuls over cores.
# Set before numpy is imported anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import ctypes
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import streamasr  # noqa: E402
from streamasr import corpus, engine, layout, metrics, model  # noqa: E402

if not Path(streamasr.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(
        f"streamasr was imported from {streamasr.__file__}, not from the "
        f"checkout's src/ ({ROOT / 'src'})")

FPS = 25.0
CHUNK_FRAMES = 8
CHUNK_MS = CHUNK_FRAMES / FPS * 1000.0  # 320 ms
CHUNKING = layout.ChunkingConfig(CHUNK_FRAMES, speech_text_ratio=2)
SP = layout.SpecialTokens()
VOCAB = 32
MAX_DECODE = 24
# The ROADMAP baseline toy decoder.
TOY = model.ModelConfig(vocab_size=VOCAB, embed_dim=64, num_layers=4,
                        num_heads=4, ffn_dim=128, max_context=2048, seed=0)
# Reference end times are frame-quantized, so latencies sit on a 40 ms grid;
# latency percentiles spread each value over one frame (see smoothed_pct).
FRAME_MS = 1000.0 / FPS
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    strategy: engine.StrategyConfig
    model: str              # "toy" or "boundary" (window 1)
    min_tokens: int
    max_tokens: int
    # Corpus size: about one timed run's worth at the seed commit's speed;
    # the loop cycles through the corpus if a faster program exhausts it.
    num_utterances: int
    trace_utts: int         # fixed utterance count of the traced run
    pin_utts: int           # seed-0 utterances checked against pins.json
    build_layout: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        "greedy_toy",
        engine.StrategyConfig("cs_fallback_greedy",
                              max_decode_per_turn=MAX_DECODE),
        "toy", 5, 20, num_utterances=800, trace_utts=150, pin_utts=16),
    Workload(
        "beam_toy",
        engine.StrategyConfig("cs_fallback_beam", beam_width=3,
                              max_decode_per_turn=MAX_DECODE),
        "toy", 5, 20, num_utterances=80, trace_utts=16, pin_utts=3),
    Workload(
        "redecode_toy",
        engine.StrategyConfig("ns_redecode_hold_n", hold_n=1,
                              max_decode_per_turn=MAX_DECODE),
        "toy", 5, 20, num_utterances=300, trace_utts=50, pin_utts=6),
    Workload(
        "oracle_long",
        engine.StrategyConfig("cs_fallback_greedy",
                              max_decode_per_turn=MAX_DECODE),
        "boundary", 40, 120, num_utterances=1000, trace_utts=250,
        pin_utts=0, build_layout=True),
)}


# --------------------------------------------------------------------------
# set-up: the gen-corpus then decode start-up path


@dataclass
class Setup:
    utts: list
    model_for: object       # callable: utterance -> model
    gen_s: float
    write_s: float
    read_s: float           # read_corpus plus validate_utterance
    model_s: float

    @property
    def total_s(self) -> float:
        return self.gen_s + self.write_s + self.read_s + self.model_s


def build_model(wl: Workload, utts):
    """Model factory for the workload: utterance -> model."""
    if wl.model == "toy":
        toy = model.ToyDecoder(TOY)
        return lambda u: toy
    suite = model.make_boundary_oracle(utts, 1, sp=SP, vocab_size=VOCAB)
    return lambda u: suite.bind(u, engine.PARADIGM_OF[wl.strategy.name])


def setup(wl: Workload, seed: int, num_utterances: int | None = None) -> Setup:
    """Generate, write (lazy frames), read back, validate, build the model."""
    cfg = corpus.CorpusConfig(
        num_utterances=num_utterances or wl.num_utterances, vocab_size=VOCAB,
        frames_per_second=FPS, min_tokens=wl.min_tokens,
        max_tokens=wl.max_tokens, seed=seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"corpus-{wl.name}-{seed}-{os.getpid()}.jsonl"
    try:
        t0 = time.perf_counter()
        utts = corpus.gen_synthetic_corpus(cfg)
        t1 = time.perf_counter()
        corpus.write_corpus(path, utts, cfg, inline_frames=False)
        t2 = time.perf_counter()
        utts = corpus.read_corpus(path)
        for u in utts:
            corpus.validate_utterance(u)
        t3 = time.perf_counter()
        model_for = build_model(wl, utts)
        t4 = time.perf_counter()
    finally:
        path.unlink(missing_ok=True)
    return Setup(utts, model_for, t1 - t0, t2 - t1, t3 - t2, t4 - t3)


# --------------------------------------------------------------------------
# decoding one utterance


@dataclass
class Decoded:
    utt: object
    hyp: list[int]
    records: list
    stats: engine.SessionStats
    turn_s: list[float]
    errors: metrics.ErrorCounts
    latency: metrics.LatencyReport

    @property
    def audio_s(self) -> float:
        return self.utt.num_frames / FPS

    def digest(self) -> str:
        """Hypothesis and forward-position count, the pinned behaviour."""
        blob = json.dumps([self.hyp, self.stats.forward_positions])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def decode(wl: Workload, strategy, model_obj, u) -> Decoded:
    sess = engine.session_new(model_obj, CHUNKING, strategy, SP)
    turn_s = []
    bounds = layout.chunk_bounds(u.num_frames, CHUNK_FRAMES) or [(0, 0)]
    for lo, hi in bounds:
        t0 = time.perf_counter()
        engine.push_chunk(sess, u.frames[lo:hi], is_last=hi == u.num_frames)
        turn_s.append(time.perf_counter() - t0)
    hyp = engine.final_hypothesis(sess)
    errors = metrics.edit_distance(u.tokens, hyp)
    latency = metrics.emission_latency(sess.records, u.alignments, CHUNK_MS,
                                       FPS)
    if wl.build_layout:
        layout.build_cs(u, CHUNKING, SP)
    return Decoded(u, hyp, sess.records, sess.stats, turn_s, errors, latency)


def check(wl: Workload, d: Decoded) -> str | None:
    """Output check that holds for any seed; returns the problem, if any."""
    if any(r.finalize_chunk is None for r in d.records if not r.retracted):
        return "a record was left provisional"
    if wl.model == "boundary" and d.hyp != d.utt.tokens:
        return f"hypothesis differs from reference ({d.errors.errors} errors)"
    if engine.PARADIGM_OF[wl.strategy.name] == "ns":
        # each turn re-prefills every frame so far plus sos
        bounds = layout.chunk_bounds(d.utt.num_frames, CHUNK_FRAMES)
        want = sum(hi + 1 for _, hi in bounds)
        if d.stats.prefill_positions != want:
            return f"prefill {d.stats.prefill_positions} != {want}"
    return None


def load_pins() -> dict:
    with open(ROOT / "perfbench" / "pins.json", encoding="utf-8") as fh:
        return json.load(fh)


def pinned_check(wl: Workload, pins: dict) -> list[str]:
    """Decode the first seed-0 utterances and compare with pins.json."""
    if not wl.pin_utts:
        return []
    st = setup(wl, 0, wl.pin_utts)
    want = pins[wl.name]
    problems = []
    for u in st.utts:
        got = decode(wl, wl.strategy, st.model_for(u), u).digest()
        if got != want[u.id]:
            problems.append(f"{u.id}: digest {got} != pinned {want[u.id]}")
    return problems


# --------------------------------------------------------------------------
# compute-inclusive latency


@dataclass
class Timeline:
    """One decoded utterance, reduced to what the latency replay needs:
    turn times and, per reference-paired token, its emitting and finalizing
    turn and its reference end time."""

    turn_s: array
    emit_chunk: array
    final_chunk: array
    end_ms: array


def pairs_of(ref, hyp):
    # identical sequences align on the diagonal; skip the quadratic DP
    if ref == hyp:
        return [(i, i) for i in range(len(ref))]
    return metrics.align_tokens(ref, hyp)


def timeline(d: Decoded, fps: float = FPS) -> Timeline:
    """Tokens are paired with the reference as ``emission_latency`` pairs
    them; retracted records take no part."""
    live = [r for r in d.records if not r.retracted]
    aligns = d.utt.alignments
    tl = Timeline(array("d", d.turn_s), array("i"), array("i"), array("d"))
    for ri, hj in pairs_of([a.token_id for a in aligns],
                           [r.token for r in live]):
        r = live[hj]
        tl.emit_chunk.append(r.emit_chunk)
        tl.final_chunk.append(r.finalize_chunk if r.finalize_chunk is not None
                              else r.emit_chunk)
        tl.end_ms.append(aligns[ri].end_frame / fps * 1000.0)
    return tl


def replay(turn_s, chunk_ms: float = CHUNK_MS):
    """Finish time (ms) and queue wait (ms) of each turn under real-time
    arrival: turn k starts at max(due_k, finish_{k-1})."""
    finish, wait = [], []
    prev = 0.0
    for k, t in enumerate(turn_s):
        due = (k + 1) * chunk_ms
        start = max(due, prev)
        prev = start + t * 1000.0
        finish.append(prev)
        wait.append(start - due)
    return finish, wait


def token_latencies(tl: Timeline, finish, chunk_ms: float = CHUNK_MS):
    """Per-token emission and finalization latency including compute.

    Each is ``metrics.emission_latency``'s value (clamped at 0) plus how
    late the emitting (finalizing) turn finished after its chunk was due.
    The clamp applies to the algorithmic part only, so a token guessed
    before its audio ended still carries its turn's compute delay; for
    every token emitted after its reference end this equals
    max(0, finish - end). With zero turn times the lists equal
    ``emission_latency``'s token for token.
    """
    out = ([], [])
    for chunks, lat in zip((tl.emit_chunk, tl.final_chunk), out):
        for chunk, end_ms in zip(chunks, tl.end_ms):
            due = (chunk + 1) * chunk_ms
            lat.append(max(0.0, due - end_ms) + (finish[chunk] - due))
    return out


def smoothed_pct(values, q: float, half_width: float = FRAME_MS / 2) -> float:
    """q-th percentile after spreading each value uniformly over one frame.

    Reference end times are known to a frame (40 ms), so latencies sit on
    a 40 ms grid and a plain sample percentile jumps between grid points
    from corpus to corpus. Spreading each value over +-half a frame makes
    the percentile move continuously with the sample, and shifts by exactly
    d when every latency shifts by d.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    lo, hi = v[0] - half_width, v[-1] + half_width
    target = q / 100.0
    for _ in range(60):
        mid = (lo + hi) / 2
        cdf = np.clip((mid - v + half_width) / (2 * half_width), 0.0, 1.0).mean()
        lo, hi = (mid, hi) if cdf < target else (lo, mid)
    return (lo + hi) / 2


# --------------------------------------------------------------------------
# machine-speed calibration
#
# On a shared 2-core x86-64 host the same work ran 10-25% faster or slower
# from one minute to the next while the process kept its core. A fixed
# kernel of the toy decoder's kind of work (layer norm and a 64x64 matmul on
# 8 rows, then dict updates), timed between utterances, drifts with it.
# End-to-end timings are scaled by CALIBRATION_REF_S / (mean kernel time of
# the run), i.e. reported at the speed the host had when the kernel took
# CALIBRATION_REF_S. The kernel is benchmark code, so no change to
# streamasr moves it. It tracks compute-bound work better than the
# memory-bound KV-cache allocation that dominates beam_toy.

CALIBRATION_REF_S = 1.8e-3
CALIBRATE_EVERY_S = 0.05


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((64, 64)) * 0.1
        self._x = rng.standard_normal((8, 64))
        self.samples: list[float] = []
        self._last = 0.0

    def _kernel(self) -> None:
        y = self._x
        for _ in range(40):
            mu = y.mean(axis=-1, keepdims=True)
            h = (y - mu) / np.sqrt(y.var(axis=-1, keepdims=True) + 1e-5)
            y = np.maximum(h @ self._w, 0.0) + self._x
        d: dict[int, int] = {}
        for i in range(1500):
            d[i % 61] = d.get(i % 61, 0) + i

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def tick(self) -> None:
        """Sample if CALIBRATE_EVERY_S has passed since the last sample."""
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


# --------------------------------------------------------------------------
# the timed loop


_STAT_FIELDS = ("forward_positions", "prefill_positions", "decode_positions",
                "rollback_positions", "rollback_count", "revised")


@dataclass
class LoopResult:
    """What a loop keeps: timelines and totals, not sessions, so memory
    grows little with the number of utterances a faster program decodes."""

    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    errors: int = 0         # failures that raised
    audio_s: float = 0.0
    busy_s: float = 0.0     # time inside decode(): the library path only
    timelines: list[Timeline] = field(default_factory=list)
    pooled: metrics.ErrorCounts = metrics.ErrorCounts(0, 0, 0, 0)
    stats: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_STAT_FIELDS, 0))
    hyp_tokens: int = 0

    def add(self, d: Decoded, seconds: float) -> None:
        self.audio_s += d.audio_s
        self.busy_s += seconds
        self.timelines.append(timeline(d))
        self.pooled = metrics.pool_counts([self.pooled, d.errors])
        for name in _STAT_FIELDS:
            self.stats[name] += getattr(d.stats, name)
        self.hyp_tokens += len(d.hyp)

    @property
    def decoded(self) -> int:
        return len(self.timelines)

    @property
    def audio_s_per_s(self) -> float:
        return self.audio_s / self.busy_s

    def turn_ms(self, factor: float = 1.0) -> np.ndarray:
        return np.concatenate([np.asarray(tl.turn_s) for tl in self.timelines]) \
            * (1000.0 * factor)

    def latencies(self, factor: float = 1.0):
        """Emission and finalization latencies (ms) and the largest queue
        wait (ms), replaying turn times scaled by ``factor``."""
        emit, final, wait_max = [], [], 0.0
        for tl in self.timelines:
            finish, wait = replay([t * factor for t in tl.turn_s])
            e, f = token_latencies(tl, finish)
            emit += e
            final += f
            wait_max = max(wait_max, *wait)
        return emit, final, wait_max


def run_loop(wl: Workload, st: Setup, *, seconds: float | None = None,
             count: int | None = None, on_utterance=None,
             calibration: Calibration | None = None) -> LoopResult:
    """Decode utterances in order, cycling the corpus, until ``seconds``
    have passed or ``count`` utterances are done. An utterance that raises
    or fails its check counts as failed; the run goes on."""
    res = LoopResult()
    first_digest: dict[str, str] = {}
    deadline = time.perf_counter() + seconds if seconds is not None else None
    while True:
        u = st.utts[res.attempted % len(st.utts)]
        if on_utterance is not None:
            on_utterance(u.id)
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            d = decode(wl, wl.strategy, st.model_for(u), u)
        except Exception as exc:  # one bad utterance must not end the run
            res.errors += 1
            res.failures.append(f"{u.id}: {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - t0
            problem = check(wl, d)
            # a second pass over the corpus must repeat the first exactly
            digest = d.digest()
            if problem is None and \
                    first_digest.setdefault(u.id, digest) != digest:
                problem = "output differs from the first pass"
            if problem is None:
                res.add(d, elapsed)
            else:
                res.failures.append(f"{u.id}: {problem}")
        if calibration is not None:
            calibration.tick()
        if (count is not None and res.attempted >= count) or \
                (deadline is not None and time.perf_counter() >= deadline):
            return res


# --------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_alloc_mb(wl: Workload, st: Setup, n: int = 20) -> float:
    """Peak memory allocated while decoding the longest of the first ``n``
    utterances, as tracemalloc counts it (numpy buffers included, the
    corpus and the interpreter excluded). Also warms the decode path up.

    Peak RSS is no stable stand-in: on redecode_toy glibc's heap layout
    puts it at 46 or 60 MB depending on the seed, chaotically.
    """
    u = max(st.utts[:n], key=lambda u: u.num_frames)
    tracemalloc.start()
    try:
        decode(wl, wl.strategy, st.model_for(u), u)
        return tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
    finally:
        tracemalloc.stop()


def end_to_end(loop: LoopResult, setup_s: float, alloc_mb: float,
               failed: int, attempted: int,
               factor: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; every timing is scaled by ``factor``."""
    pooled = loop.pooled
    hits = pooled.ref_len - pooled.substitutions - pooled.deletions
    turn_ms = np.percentile(loop.turn_ms(factor), [50, 95])
    emit, final, _ = loop.latencies(factor)
    return {
        "setup_s": (setup_s * factor, "s"),
        "audio_s_per_s": (loop.audio_s_per_s / factor, "audio_s/s"),
        "turn_ms_p50": (float(turn_ms[0]), "ms"),
        "turn_ms_p95": (float(turn_ms[1]), "ms"),
        "emit_ms_p50": (smoothed_pct(emit, 50), "ms"),
        "emit_ms_p90": (smoothed_pct(emit, 90), "ms"),
        "finalize_ms_p90": (smoothed_pct(final, 90), "ms"),
        "hit_pct": (100.0 * hits / pooled.ref_len, "%"),
        "passed_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_alloc_mb": (alloc_mb, "MB"),
    }


def report_counts(loop: LoopResult, calibration: Calibration) -> dict:
    """Context printed beside the metrics: sample sizes, pooled WER, the
    calibration and the unscaled timings."""
    turn_ms = np.percentile(loop.turn_ms(), [50, 95])
    _, _, wait_max = loop.latencies()
    return {
        "utterances": loop.decoded,
        "turns": int(sum(len(tl.turn_s) for tl in loop.timelines)),
        "tokens_scored": int(sum(len(tl.end_ms) for tl in loop.timelines)),
        "wer_pct": 100.0 * loop.pooled.wer,
        "audio_s": loop.audio_s,
        "busy_s": loop.busy_s,
        "calibration_factor": calibration.factor,
        "calibration_samples": len(calibration.samples),
        "unscaled_audio_s_per_s": loop.audio_s_per_s,
        "unscaled_turn_ms_p50": float(turn_ms[0]),
        "unscaled_turn_ms_p95": float(turn_ms[1]),
        "unscaled_queue_wait_ms_max": wait_max,
        "peak_rss_mb": peak_rss_mb(),
    }


def median_setup(wl: Workload, seed: int,
                 calibration: Calibration | None = None,
                 ) -> tuple[Setup, dict[str, float]]:
    """Set up at least SETUP_REPEATS times and for SETUP_MIN_S seconds;
    keep the last corpus and report the median of each phase."""
    times: dict[str, list[float]] = {
        "setup_s": [], "gen_s": [], "write_s": [], "read_s": []}
    while len(times["setup_s"]) < SETUP_REPEATS or \
            sum(times["setup_s"]) < SETUP_MIN_S:
        st = None  # let the previous corpus go before building the next
        st = setup(wl, seed)
        for name, value in (("setup_s", st.total_s), ("gen_s", st.gen_s),
                            ("write_s", st.write_s), ("read_s", st.read_s)):
            times[name].append(value)
        if calibration is not None:
            calibration.sample()
    return st, {name: statistics.median(v) for name, v in times.items()}


# --------------------------------------------------------------------------
# environment stamp


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "streamasr").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles a known build."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "threads": _blas_threads(),
    }


def env_stamp(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "workload": workload,
        "seed": seed,
    }
