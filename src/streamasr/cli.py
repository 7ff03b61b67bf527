"""Command line interface.

Subcommands:

* ``gen-corpus``: synthesize a deterministic corpus (JSON Lines).
* ``build-sequences``: lay a corpus out as training sequences.
* ``decode``: run one decoding strategy over a corpus and score it.
* ``ablate``: strategy-by-chunk-size grid with a summary table.
* ``verify``: run the self-check battery (``--full`` for full scale).

Writing commands drop ``<out>.manifest.json`` beside their output: the
resolved configuration, the package, Python and numpy versions, and a
sha256 per input file, so a run is reproducible from the manifest alone. Each line of a ``--config``
file of ``key=value`` lines (long option names, underscores) is parsed as
the flag ``--key=value``, checked like one, ahead of the explicit flags,
which win; a key the command has no option for is a usage error. On/off
flags take ``true``/``false``, ``yes``/``no`` or ``1``/``0``. Corpora are
validated as they are read, and against a toy model's frame_dim, so a
malformed utterance stops a command with an ``error:`` line that names it;
one that fails to decode is only skipped.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import traceback
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import CorpusConfig, gen_synthetic_corpus, read_corpus, write_corpus
from .engine import (
    PARADIGM_OF,
    STRATEGIES,
    StrategyConfig,
    run_stream,
    session_new,
)
from .layout import PARADIGMS, ChunkingConfig, build_cs, build_ns, build_ss
from .metrics import (
    LatencyReport,
    edit_distance,
    emission_latency,
    pool_counts,
    report_row,
    summarize,
    to_csv,
)
from .model import (
    ContextOverflow,
    ModelConfig,
    TeacherOracle,
    ToyDecoder,
    make_boundary_oracle,
)
from .verify import run_battery


def _layout(u, paradigm: str, ck: ChunkingConfig):
    """The training layout of ``u`` in ``paradigm``; ns has no chunking."""
    if paradigm == "ns":
        return build_ns(u)
    return {"ss": build_ss, "cs": build_cs}[paradigm](u, ck)


def chunk_ms_to_frames(chunk_ms: float, frames_per_second: float) -> int:
    """Floor to whole frames; a chunk is never shorter than one frame."""
    return max(1, int(math.floor(chunk_ms * frames_per_second / 1000.0)))


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out: str, command: str, ns: argparse.Namespace,
                    inputs: list[str], summary: dict | None = None) -> None:
    config = {
        k: v for k, v in vars(ns).items()
        if k not in ("func", "command", "config") and not k.startswith("_")
    }
    manifest = {
        "command": command,
        "version": __version__,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__},
        "config": config,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": [out],
    }
    if summary is not None:
        manifest["summary"] = summary
    with open(f"{out}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


# every subcommand's parent, and the pre-parse that finds the file
_CONFIG = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG.add_argument("--config", help="key=value lines, parsed as flags")


def _config_args(subcommands: dict[str, argparse.ArgumentParser],
                 argv: list[str]) -> list[str]:
    """``argv`` with each ``--config`` line put right after the subcommand
    name as its flag (``--key=value``, bare for a true on/off value), so
    argparse checks it as typed (type, choices, required) and the user's
    own flags win. A missing path, a line without ``=``, an unknown key and
    a non-boolean on/off value are usage errors."""
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    sub = None if at is None else subcommands.get(argv[at])
    if sub is None:
        return argv  # parse_args reports the missing or unknown command
    try:
        path = _CONFIG.parse_known_args(argv[at + 1:])[0].config
    except argparse.ArgumentError as exc:
        sub.error(str(exc))
    if path is None:
        return argv
    options = {s.lstrip("-").replace("-", "_"): a for a in sub._actions
               if not isinstance(a, argparse._HelpAction)
               for s in a.option_strings}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        sub.error(f"--config: {exc}")
    tokens, unknown = [], set()
    with fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                sub.error(f"--config: line without '=': {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            action = options.get(key.replace("-", "_"))
            if action is None:
                unknown.add(key)
            elif action.nargs != 0:
                tokens.append(f"{action.option_strings[0]}={value}")
            elif value.lower() not in _BOOLEANS:
                sub.error(f"--config: {key} = {value!r} is not "
                          "true/false, yes/no or 1/0")
            elif _BOOLEANS[value.lower()]:
                tokens.append(action.option_strings[0])
    if unknown:
        sub.error(f"--config: no {argv[at]} option for "
                  f"{', '.join(sorted(unknown))}")
    return [*argv[:at + 1], *tokens, *argv[at + 1:]]


# --------------------------------------------------------------------------
# subcommands


def _cmd_gen_corpus(ns: argparse.Namespace) -> int:
    # a corpus stores no frame rate, so gen-corpus takes none
    cfg = CorpusConfig(**{f.name: getattr(ns, f.name)
                          for f in fields(CorpusConfig)
                          if f.name != "frames_per_second"})
    utts = gen_synthetic_corpus(cfg)
    write_corpus(ns.out, utts, cfg, inline_frames=ns.inline_frames)
    _write_manifest(ns.out, "gen-corpus", ns, [])
    print(f"wrote {len(utts)} utterances to {ns.out}")
    return 0


def _cmd_build_sequences(ns: argparse.Namespace) -> int:
    utts = read_corpus(ns.corpus)
    frames = chunk_ms_to_frames(ns.chunk_ms, ns.frames_per_second)
    ck = ChunkingConfig(frames, ns.speech_text_ratio)
    with open(ns.out, "w", encoding="utf-8") as fh:
        for u in utts:
            seq = _layout(u, ns.paradigm, ck)
            rec = {
                "id": u.id,
                "paradigm": ns.paradigm,
                "chunk_frames": frames,
                "positions": [str(p) for p in seq.positions],
                "targets": seq.targets,
                "segments": [[list(s), list(t)] for s, t in seq.segments],
            }
            fh.write(json.dumps(rec) + "\n")
    _write_manifest(ns.out, "build-sequences", ns, [ns.corpus])
    print(f"wrote {len(utts)} {ns.paradigm} sequences to {ns.out}")
    return 0


def _make_model_factory(ns: argparse.Namespace, utts):
    """Returns model_for(utt, paradigm, chunking) for the --model spec.
    Every corpus token must lie in the model's vocabulary, and a toy
    model must take the corpus's frame_dim; both are checked here, once."""
    spec, vocab, model = ns.model, ns.vocab_size, None
    if spec == "teacher":
        factory = lambda u, paradigm, ck: TeacherOracle(
            _layout(u, paradigm, ck), vocab_size=vocab)
    elif spec.startswith("boundary:"):
        window = int(spec.split(":", 1)[1])
        suite = make_boundary_oracle(utts, window, vocab_size=vocab)
        factory = lambda u, paradigm, ck: suite.bind(u, paradigm)
    else:
        if spec == "toy" or spec.startswith("toy:"):
            seed = int(spec[4:]) if spec != "toy" else 0
            model = ToyDecoder(ModelConfig(vocab_size=vocab, seed=seed))
        else:
            model = ToyDecoder.load(spec)
        vocab = model.vocab_size
        factory = lambda u, paradigm, ck: model
    for u in utts:
        outside = [t for t in u.tokens if t >= vocab]
        if outside:
            raise ValueError(f"{u.id}: token id {outside[0]} outside the "
                             f"model's vocabulary of {vocab}")
        if model is not None and u.frames.shape[1] != model.cfg.frame_dim:
            raise ValueError(
                f"{u.id}: corpus frame_dim {u.frames.shape[1]} does not "
                f"match the model's frame_dim {model.cfg.frame_dim}")
    return factory


def _decode_one(sess, u, fps: float, chunk_ms: float):
    """Decode and score one utterance: its entry, counts and latency, with
    ``chunk_ms`` the duration of the chunks the session decodes."""
    hyp = run_stream(sess, u.frames)
    c = edit_distance(u.tokens, hyp)
    lat = emission_latency(sess.records, u.alignments, chunk_ms, fps)
    entry = {
        "id": u.id,
        "ref": list(u.tokens),
        "hyp": hyp,
        "errors": asdict(c),
        "records": [{**asdict(r), "retracted_value": r.retracted_value}
                    for r in sess.records],
        "stats": {**asdict(sess.stats),
                  "per_turn": [asdict(t) for t in sess.turns]},
    }
    return entry, c, lat


def _run_strategy(utts, strategy: StrategyConfig, ck: ChunkingConfig,
                  factory, fps: float, chunk_ms: float):
    """Decode and score every utterance. One that raises gets an
    ``{"id", "error"}`` entry, a warning on stderr (with the traceback
    unless it overflowed the context) and no score; the rest still runs.
    A strategy the engine rejects raises as its ``StrategyConfig`` is
    built, before any utterance, so it ends the command instead.
    Returns the report row and the per-utterance entries."""
    paradigm = PARADIGM_OF[strategy.name]
    # latency counts whole decoded chunks; the row keeps the requested size
    decoded_ms = ck.chunk_frames / fps * 1000.0
    per_utt = []
    counts = []
    pooled_lat = LatencyReport()
    positions = 0
    for u in utts:
        sess = session_new(factory(u, paradigm, ck), ck, strategy)
        try:
            entry, c, lat = _decode_one(sess, u, fps, decoded_ms)
        except ContextOverflow as exc:
            entry = {"id": u.id, "error": f"context overflow: {exc}"}
        except Exception as exc:  # one bad utterance must not end the run
            traceback.print_exc(file=sys.stderr)
            entry = {"id": u.id, "error": f"{type(exc).__name__}: {exc}"}
        per_utt.append(entry)
        if "error" in entry:
            print(f"warning: {u.id}: {entry['error']}", file=sys.stderr)
            continue
        counts.append(c)
        pooled_lat.emit_ms.extend(lat.emit_ms)
        pooled_lat.finalize_ms.extend(lat.finalize_ms)
        positions += entry["stats"]["forward_positions"]
    row = report_row(strategy.name, chunk_ms, ck.chunk_frames,
                     pool_counts(counts), pooled_lat, positions,
                     failed=len(per_utt) - len(counts))
    return row, per_utt


def _strategy_from_ns(ns: argparse.Namespace, name: str) -> StrategyConfig:
    # --beam-width only applies to beam strategies, so a mixed
    # greedy-and-beam sweep can share one flag value
    width = ns.beam_width if name.endswith("_beam") else 1
    return StrategyConfig(name=name, beam_width=width, hold_n=ns.hold_n,
                          wait_k=ns.wait_k,
                          max_decode_per_turn=ns.max_decode_per_turn)


def _grid(ns: argparse.Namespace, chunk_ms_values, names):
    """Decode the corpus at each chunk size with each strategy in turn,
    yielding each report row with its per-utterance entries."""
    utts = read_corpus(ns.corpus)
    fps = ns.frames_per_second
    factory = _make_model_factory(ns, utts)
    for chunk_ms in chunk_ms_values:
        ck = ChunkingConfig(chunk_ms_to_frames(chunk_ms, fps),
                            ns.speech_text_ratio)
        for name in names:
            yield _run_strategy(utts, _strategy_from_ns(ns, name), ck,
                                factory, fps, chunk_ms)


def _cmd_decode(ns: argparse.Namespace) -> int:
    [(row, per_utt)] = _grid(ns, [ns.chunk_ms], [ns.strategy])
    print(summarize([row]))
    if ns.out:
        # one JSON line per utterance; the report row is the summary in
        # the manifest next to it
        with open(ns.out, "w", encoding="utf-8") as fh:
            for entry in per_utt:
                fh.write(json.dumps(entry) + "\n")
        _write_manifest(ns.out, "decode", ns, [ns.corpus], summary=row)
    return 0


def _cmd_ablate(ns: argparse.Namespace) -> int:
    rows = [row for row, _ in _grid(ns, ns.chunk_ms, ns.strategies)]
    print(summarize(rows))
    summary = {"failed": sum(r["failed"] for r in rows)}
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows}, fh, indent=2)
            fh.write("\n")
        _write_manifest(ns.out, "ablate", ns, [ns.corpus], summary)
    if ns.csv:
        with open(ns.csv, "w", encoding="utf-8") as fh:
            fh.write(to_csv(rows))
        _write_manifest(ns.csv, "ablate", ns, [ns.corpus], summary)
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    results = run_battery(full=ns.full, seed=ns.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# parser


def _strategy_list(value: str) -> list[str]:
    names = [s.strip() for s in value.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError("needs at least one strategy")
    for s in names:
        if s not in STRATEGIES:
            raise argparse.ArgumentTypeError(f"unknown strategy {s!r}")
    return names


def _positive(value: str) -> float:
    """A frame rate or a chunk length: a finite number above 0."""
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {value!r}") from None
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(
            f"not a finite number above 0: {value!r}")
    return x


def _chunk_ms_list(value: str) -> list[float]:
    try:  # a non-number names the whole list, a bad number itself
        [float(s) for s in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {value!r}") from None
    return [_positive(s) for s in value.split(",")]


_MODEL_NUMBERS = {"toy": "toy seed", "boundary": "boundary confusion window"}


def _model_spec(value: str) -> str:
    """A --model spec, returned as given: 'teacher', 'toy[:seed]',
    'boundary:<window>' (seed and window integers >= 0) or an existing
    parameter file."""
    if value in ("teacher", "toy"):
        return value
    name, colon, number = value.partition(":")
    what = _MODEL_NUMBERS.get(name) if colon else None
    if what is not None:
        try:
            n = int(number)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer, not {number!r}") from None
        if n < 0:
            raise argparse.ArgumentTypeError(f"{what} must be >= 0, not {n}")
        return value
    if not Path(value).is_file():
        raise argparse.ArgumentTypeError(
            "not 'teacher', 'toy[:seed]', 'boundary:<window>' or an "
            f"existing parameter file: {value!r}")
    return value


def _add_fps_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fps", "--frames-per-second", dest="frames_per_second",
                   default=25.0, type=_positive)


def _add_common_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="boundary:1", type=_model_spec,
                   help="parameter file path, 'toy[:seed]', 'teacher', or "
                        "'boundary:<window>' (a token followed by fewer "
                        "than <window> frames of context comes out "
                        "confused; 0 is exact)")
    p.add_argument("--vocab-size", default=32, type=int)
    _add_fps_arg(p)
    p.add_argument("--speech-text-ratio", default=2, type=int)
    p.add_argument("--beam-width", default=1, type=int)
    p.add_argument("--hold-n", default=1, type=int)
    p.add_argument("--wait-k", default=1, type=int)
    p.add_argument("--max-decode-per-turn", default=256, type=int)


def build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="streamasr",
        description="training-sequence construction and streaming decoding",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[_CONFIG])

    g = add("gen-corpus", help="synthesize a deterministic corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--num-utterances", default=200, type=int)
    g.add_argument("--vocab-size", default=32, type=int)
    g.add_argument("--min-tokens", default=5, type=int)
    g.add_argument("--max-tokens", default=20, type=int)
    g.add_argument("--frames-per-token-mean", default=4.0, type=float)
    g.add_argument("--noise-std", default=0.05, type=float)
    g.add_argument("--frame-dim", default=8, type=int)
    g.add_argument("--seed", default=0, type=int)
    g.add_argument("--inline-frames", action="store_true",
                   help="store frame matrices instead of regeneration seeds")
    g.set_defaults(func=_cmd_gen_corpus)

    b = add("build-sequences", help="lay a corpus out for training")
    b.add_argument("--corpus", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--paradigm", choices=PARADIGMS, required=True)
    b.add_argument("--chunk-ms", default=640.0, type=_positive)
    _add_fps_arg(b)
    b.add_argument("--speech-text-ratio", default=2, type=int)
    b.set_defaults(func=_cmd_build_sequences)

    d = add("decode", help="decode a corpus with one strategy")
    d.add_argument("--corpus", required=True)
    d.add_argument("--strategy", choices=STRATEGIES, required=True)
    d.add_argument("--chunk-ms", default=640.0, type=_positive)
    d.add_argument("--out")
    _add_common_model_args(d)
    d.set_defaults(func=_cmd_decode)

    a = add("ablate", help="strategy x chunk-size comparison grid")
    a.add_argument("--corpus", required=True)
    a.add_argument(
        "--strategies", type=_strategy_list,
        default="ss_greedy,cs_fallback_greedy,ss_beam,cs_fallback_beam")
    a.add_argument("--chunk-ms", type=_chunk_ms_list, default="1000,640,320")
    a.add_argument("--out", help="JSON summary path")
    a.add_argument("--csv", help="CSV report path")
    _add_common_model_args(a)
    # the stock grid pairs each greedy strategy with its width-3 beam twin
    a.set_defaults(func=_cmd_ablate, beam_width=3)

    v = add("verify", help="run the self-check battery")
    v.add_argument("--full", action="store_true", help="full-scale checks")
    v.add_argument("--seed", default=0, type=int)
    v.set_defaults(func=_cmd_verify)
    return parser, {"gen-corpus": g, "build-sequences": b, "decode": d,
                    "ablate": a, "verify": v}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands = build_parser()
    ns = parser.parse_args(_config_args(subcommands, argv))
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
