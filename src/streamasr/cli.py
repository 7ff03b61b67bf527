"""Command line interface.

Subcommands:

* ``gen-corpus``: synthesize a deterministic corpus (JSON Lines).
* ``build-sequences``: lay a corpus out as training sequences.
* ``decode``: run one decoding strategy over a corpus and score it.
* ``ablate``: strategy-by-chunk-size grid with a summary table.
* ``verify``: run the self-check battery (``--full`` for full scale).

Writing commands drop ``<out>.manifest.json`` beside their output: the
resolved configuration, package version, and a sha256 per input file, so a
run is reproducible from the manifest alone. A ``--config`` file of
``key=value`` lines (long option names, underscores) seeds any command's
defaults; explicit flags win, and a key the command has no option for is a
usage error. On/off flags take ``true``/``false``, ``yes``/``no`` or
``1``/``0``. Corpora are validated as they are read, and against a toy
model's frame_dim, so a malformed utterance stops a command with an
``error:`` line that names it; one that fails to decode is only skipped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import traceback
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .corpus import CorpusConfig, gen_synthetic_corpus, read_corpus, write_corpus
from .engine import (
    PARADIGM_OF,
    STRATEGIES,
    StrategyConfig,
    run_stream,
    session_new,
)
from .layout import ChunkingConfig, SpecialTokens, build_cs, build_ns, build_ss
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


def _layout(u, paradigm: str, ck: ChunkingConfig, sp: SpecialTokens):
    """The training layout of ``u`` in ``paradigm``; ns has no chunking."""
    if paradigm == "ns":
        return build_ns(u, sp)
    return {"ss": build_ss, "cs": build_cs}[paradigm](u, ck, sp)


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


def _read_config_overrides(parser: argparse.ArgumentParser,
                           argv: list[str]) -> dict[str, str]:
    """key=value defaults, kept as strings: argparse converts a string
    default with the option's ``type``, so a bad value is a usage error
    naming the flag (``main`` converts on/off flags). ``--config`` is found
    by argparse's own rules; a missing or unreadable path is a usage error."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    if path is None:
        return {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        parser.error(f"--config: {exc}")
    overrides: dict[str, str] = {}
    with fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                parser.error(f"--config: line without '=': {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key == "fps":
                key = "frames_per_second"
            overrides[key] = value
    return overrides


# --------------------------------------------------------------------------
# subcommands


def _cmd_gen_corpus(ns: argparse.Namespace) -> int:
    cfg = CorpusConfig(**{f.name: getattr(ns, f.name)
                          for f in fields(CorpusConfig)})
    utts = gen_synthetic_corpus(cfg)
    write_corpus(ns.out, utts, cfg, inline_frames=ns.inline_frames)
    _write_manifest(ns.out, "gen-corpus", ns, [])
    print(f"wrote {len(utts)} utterances to {ns.out}")
    return 0


def _cmd_build_sequences(ns: argparse.Namespace) -> int:
    utts = read_corpus(ns.corpus)
    sp = SpecialTokens()
    frames = chunk_ms_to_frames(ns.chunk_ms, ns.frames_per_second)
    ck = ChunkingConfig(frames, ns.speech_text_ratio)
    with open(ns.out, "w", encoding="utf-8") as fh:
        for u in utts:
            seq = _layout(u, ns.paradigm, ck, sp)
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


def _make_model_factory(ns: argparse.Namespace, utts, sp: SpecialTokens):
    """Returns model_for(utt, paradigm, chunking) for the --model spec."""
    spec, vocab = ns.model, ns.vocab_size
    if spec == "teacher":
        return lambda u, paradigm, ck: TeacherOracle(
            _layout(u, paradigm, ck, sp), sp, vocab)
    if spec.startswith("boundary:"):
        window = int(spec.split(":", 1)[1])
        suite = make_boundary_oracle(utts, window, sp=sp, vocab_size=vocab)
        return lambda u, paradigm, ck: suite.bind(u, paradigm)
    if spec == "toy" or spec.startswith("toy:"):
        seed = int(spec[4:]) if spec != "toy" else 0
        model = ToyDecoder(ModelConfig(vocab_size=vocab, seed=seed))
    else:
        model = ToyDecoder.load(spec)
    for u in utts:
        if u.frames.shape[1] != model.cfg.frame_dim:
            raise ValueError(
                f"{u.id}: corpus frame_dim {u.frames.shape[1]} does not "
                f"match the model's frame_dim {model.cfg.frame_dim}")
    return lambda u, paradigm, ck: model


def _decode_one(sess, u, fps: float, chunk_ms: float):
    """Decode and score one utterance: its entry, counts and latency."""
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
        "stats": sess.stats.as_dict(),
    }
    return entry, c, lat


def _run_strategy(utts, strategy: StrategyConfig, ck: ChunkingConfig,
                  factory, sp: SpecialTokens, fps: float, chunk_ms: float):
    """Decode and score every utterance. One that raises gets an
    ``{"id", "error"}`` entry, a warning on stderr (with the traceback
    unless it overflowed the context) and no score; the rest still runs.
    A configuration the engine rejects is raised from ``session_new``,
    outside that isolation, so it ends the command instead.
    Returns the report row and the per-utterance entries."""
    paradigm = PARADIGM_OF[strategy.name]
    per_utt = []
    counts = []
    pooled_lat = LatencyReport()
    positions = 0
    for u in utts:
        sess = session_new(factory(u, paradigm, ck), ck, strategy, sp)
        try:
            entry, c, lat = _decode_one(sess, u, fps, chunk_ms)
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


def _grid(ns: argparse.Namespace, chunk_sizes, names):
    """Decode the corpus at each chunk size with each strategy in turn,
    yielding each report row with its per-utterance entries."""
    utts = read_corpus(ns.corpus)
    sp = SpecialTokens()
    fps = ns.frames_per_second
    factory = _make_model_factory(ns, utts, sp)
    for chunk_ms in chunk_sizes:
        ck = ChunkingConfig(chunk_ms_to_frames(chunk_ms, fps),
                            ns.speech_text_ratio)
        for name in names:
            yield _run_strategy(utts, _strategy_from_ns(ns, name), ck,
                                factory, sp, fps, chunk_ms)


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


def _chunk_ms_list(value: str) -> list[float]:
    try:
        return [float(s) for s in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {value!r}") from None


def _add_fps_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fps", "--frames-per-second", dest="frames_per_second",
                   default=25.0, type=float)


def _add_common_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="boundary:1",
                   help="parameter file path, 'toy[:seed]', 'teacher', or "
                        "'boundary:<window>' (any window > 0 confuses the "
                        "token ending on the context edge; 0 is exact)")
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

    g = sub.add_parser("gen-corpus", help="synthesize a deterministic corpus")
    g.add_argument("--config", help="key=value defaults file")
    g.add_argument("--out", required=True)
    g.add_argument("--num-utterances", default=200, type=int)
    g.add_argument("--vocab-size", default=32, type=int)
    _add_fps_arg(g)
    g.add_argument("--min-tokens", default=5, type=int)
    g.add_argument("--max-tokens", default=20, type=int)
    g.add_argument("--frames-per-token-mean", default=4.0, type=float)
    g.add_argument("--noise-std", default=0.05, type=float)
    g.add_argument("--frame-dim", default=8, type=int)
    g.add_argument("--seed", default=0, type=int)
    g.add_argument("--inline-frames", action="store_true",
                   help="store frame matrices instead of regeneration seeds")
    g.set_defaults(func=_cmd_gen_corpus)

    b = sub.add_parser("build-sequences", help="lay a corpus out for training")
    b.add_argument("--config", help="key=value defaults file")
    b.add_argument("--corpus", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--paradigm", choices=("ns", "ss", "cs"), required=True)
    b.add_argument("--chunk-ms", default=640.0, type=float)
    _add_fps_arg(b)
    b.add_argument("--speech-text-ratio", default=2, type=int)
    b.set_defaults(func=_cmd_build_sequences)

    d = sub.add_parser("decode", help="decode a corpus with one strategy")
    d.add_argument("--config", help="key=value defaults file")
    d.add_argument("--corpus", required=True)
    d.add_argument("--strategy", choices=STRATEGIES, required=True)
    d.add_argument("--chunk-ms", default=640.0, type=float)
    d.add_argument("--out")
    _add_common_model_args(d)
    d.set_defaults(func=_cmd_decode)

    a = sub.add_parser("ablate", help="strategy x chunk-size comparison grid")
    a.add_argument("--config", help="key=value defaults file")
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

    v = sub.add_parser("verify", help="run the self-check battery")
    v.add_argument("--config", help="key=value defaults file")
    v.add_argument("--full", action="store_true", help="full-scale checks")
    v.add_argument("--seed", default=0, type=int)
    v.set_defaults(func=_cmd_verify)
    return parser, {"gen-corpus": g, "build-sequences": b, "decode": d,
                    "ablate": a, "verify": v}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands = build_parser()
    overrides = _read_config_overrides(parser, argv)
    flags = {a.dest for sp in subcommands.values() for a in sp._actions
             if isinstance(a, argparse._StoreTrueAction)}
    for key in flags & overrides.keys():
        value = _BOOLEANS.get(overrides[key].lower())
        if value is None:
            parser.error(f"--config: {key} = {overrides[key]!r} is not "
                         "true/false, yes/no or 1/0")
        overrides[key] = value
    if overrides:
        # subparsers parse into their own namespace, so defaults go on them
        for sp in subcommands.values():
            sp.set_defaults(**overrides)
            for action in sp._actions:
                # a config-supplied value satisfies a required flag
                if action.dest in overrides:
                    action.required = False
    ns = parser.parse_args(argv)
    sub = subcommands[ns.command]
    unknown = overrides.keys() - {a.dest for a in sub._actions
                                  if not isinstance(a, argparse._HelpAction)}
    if unknown:
        sub.error(f"--config: no {ns.command} option for "
                  f"{', '.join(sorted(unknown))}")
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
