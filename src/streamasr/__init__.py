"""Unified training-sequence construction and streaming decoding.

The package covers one pipeline at desk scale: synthesize or ingest an
aligned corpus (`corpus`), lay each utterance out for non-streaming,
standard streaming, or context-aware streaming training (`layout`), run a
deterministic toy decoder or a replay oracle over those layouts (`model`),
decode chunk by chunk with commit, fallback, or re-decoding strategies
(`engine`), and score the result (`metrics`). `verify` wires the
guarantees to executable checks; `cli` fronts everything.
"""

__version__ = "0.1.0"

from .corpus import (
    EOS,
    FIRST_TEXT_ID,
    PAD,
    SOS,
    CorpusConfig,
    TokenAlignment,
    Utterance,
    gen_synthetic_corpus,
    read_corpus,
    write_corpus,
)
from .engine import (
    STRATEGIES,
    EmissionRecord,
    SessionStats,
    StrategyConfig,
    StreamingSession,
    TurnRecord,
    beam_turn_decode,
    fallback_rewind,
    final_hypothesis,
    push_chunk,
    run_stream,
    session_new,
)
from .layout import (
    ChunkingConfig,
    MixedSequence,
    Position,
    SpecialTokens,
    build_cs,
    build_ns,
    assign_slots,
    build_ss,
    chunk_bounds,
    sample_paradigm,
    stage_plan,
)
from .metrics import ErrorCounts, edit_distance, emission_latency, summarize
from .model import (
    KVCache,
    ModelConfig,
    SpeechSpan,
    TeacherOracle,
    ToyDecoder,
    adapter_forward,
    build_attention_mask,
    make_boundary_oracle,
    masked_ce_loss,
    param_count,
)
from .verify import run_battery

__all__ = [
    "__version__",
    "PAD",
    "SOS",
    "EOS",
    "FIRST_TEXT_ID",
    "CorpusConfig",
    "TokenAlignment",
    "Utterance",
    "gen_synthetic_corpus",
    "read_corpus",
    "write_corpus",
    "ChunkingConfig",
    "MixedSequence",
    "Position",
    "SpecialTokens",
    "build_cs",
    "build_ns",
    "assign_slots",
    "build_ss",
    "chunk_bounds",
    "sample_paradigm",
    "stage_plan",
    "KVCache",
    "ModelConfig",
    "SpeechSpan",
    "TeacherOracle",
    "ToyDecoder",
    "adapter_forward",
    "build_attention_mask",
    "make_boundary_oracle",
    "masked_ce_loss",
    "param_count",
    "STRATEGIES",
    "EmissionRecord",
    "SessionStats",
    "StrategyConfig",
    "StreamingSession",
    "TurnRecord",
    "beam_turn_decode",
    "fallback_rewind",
    "final_hypothesis",
    "push_chunk",
    "run_stream",
    "session_new",
    "ErrorCounts",
    "edit_distance",
    "emission_latency",
    "summarize",
    "run_battery",
]
