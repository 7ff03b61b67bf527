"""Unified training-sequence construction and streaming decoding.

The package covers one pipeline at desk scale: synthesize or ingest an
aligned corpus (`corpus`), lay each utterance out for non-streaming,
standard streaming, or context-aware streaming training (`layout`), run a
deterministic toy decoder or a replay oracle over those layouts (`model`),
decode chunk by chunk with commit, fallback, or re-decoding strategies
(`engine`), and score the result (`metrics`). `verify` wires the
guarantees to executable checks; `cli` fronts everything.

The modules are the API: import each name from its module, whose
``__all__`` lists it. The package exports only ``__version__``.
"""

__version__ = "0.1.0"
