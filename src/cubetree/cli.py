"""Command-line front end.

Subcommands: run a construction and write its artifacts, verify claim
suites over a rerun, extract post-run artifacts (image tree, path prefixes,
isomorphism), replay a config and compare outputs byte for byte, and
generate adversary files.  Exit codes: 0 success, 1 check failure, 2
usage or configuration error, 3 internal error (a broken invariant of the
construction, not a fault of the input).
"""

from __future__ import annotations

import json
import re
import sys
from itertools import islice
from pathlib import Path

from . import cc as cc_mod
from . import dc as dc_mod
from . import verify as verify_mod
from .adversary import Defect, PermSpec, make_faithful_copy
from .config import ConfigError, at_least, load_config
from .dc import GammaUnresolved, InconsistentPrefixes
from .engine import RunResult, run_stages, true_path_approx
from .structure import GrowOutOfOrder, UndefinedLabel, VariantMismatch, format_elem, format_string
from .verify import InvariantBroken

VERSION = "0.1.0"

# Lines per text chunk: the artifacts and fact files are formatted, written
# and compared one chunk at a time, so no whole file is held in memory.
CHUNK_LINES = 1024

INTERNAL_ERRORS = (GammaUnresolved, GrowOutOfOrder, InconsistentPrefixes, InvariantBroken,
                   UndefinedLabel, VariantMismatch)


def _tp(result: RunResult):
    return true_path_approx(
        result, threshold=result.cfg.tp_threshold, window=result.cfg.tp_window
    )


def _tp_summary(entries) -> list[dict]:
    return [
        {
            "addr": "/" + "/".join(e.addr),
            "label": e.label,
            "outcome": e.outcome,
            "visits": e.visits,
            "counts": dict(sorted(e.counts.items())),
        }
        for e in entries
    ]


def _chunks(blocks):
    """One text chunk per block of lines, each line ended by a newline; no
    lines at all make one empty line."""
    empty = True
    for lines in blocks:
        empty = False
        yield "\n".join(lines) + "\n"
    if empty:
        yield "\n"


def artifact_texts(result: RunResult):
    """(file name, text chunks) of each artifact of a run.  Each chunk is
    formatted as it is read: CHUNK_LINES trace events or snapshot rows, and
    meta.json whole.  Each text file's chunks are cut from one line pass, so
    its text cache serves the whole file."""
    lines = result.trace.lines()
    yield "trace.log", _chunks(iter(lambda: list(islice(lines, CHUNK_LINES)), []))
    snap = result.snapshot()
    rows, texts = snap.declarations(), {}
    yield "snapshot.log", _chunks(
        iter(lambda: snap.dump_lines(islice(rows, CHUNK_LINES), texts), []))
    meta = {
        "version": VERSION,
        "config": json.loads(result.cfg.raw),
        "true_path": _tp_summary(_tp(result)),
        "witnesses": dict(sorted(result.zprime.items())),
    }
    yield "meta.json", [json.dumps(meta, sort_keys=True, indent=1) + "\n"]


def _write_chunks(path: Path, chunks) -> None:
    """The one writer of the CLI's text files."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _same_chunks(path: Path, chunks) -> bool:
    """Whether the file holds exactly the chunks' bytes, read one chunk's
    span at a time."""
    with open(path, "rb") as fh:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            if fh.read(len(data)) != data:
                return False
        return not fh.read(1)


def write_artifacts(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, chunks in artifact_texts(result):
        _write_chunks(out_dir / name, chunks)


def cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_stages(config)
    write_artifacts(result, Path(args.out))
    print(f"ran {config.variant} to stage {config.horizon}; artifacts in {args.out}")
    return 0


SUITES = ("invariants", "labeling", "isomorphism", "image-tree")


def run_suite(result: RunResult, suite: str) -> verify_mod.Report:
    report = verify_mod.Report()
    if suite == "invariants":
        return verify_mod.check_trace_invariants(result)
    if suite == "labeling":
        s0 = max(1, result.horizon // 2)
        return verify_mod.check_labeling(result, _tp(result), s0, result.horizon)
    if suite == "isomorphism":
        if result.variant != "cc":
            return report
        entries = _tp(result)
        for idx, adv in enumerate(result.adversaries):
            if not adv.to_ground:
                continue
            try:
                extracted = cc_mod.extract_isomorphism(result, entries, idx)
            except cc_mod.ExtractionStalled as exc:
                report.add(f"extraction[{idx}]", False, str(exc))
                continue
            if result.cfg.adversaries[idx].defects:
                continue
            sub = verify_mod.check_isomorphism(
                extracted, result.snapshot(), adv, result.horizon
            )
            for r in sub.results:
                report.add(f"iso[{idx}]:{r.name}", r.ok, r.locus)
        return report
    if suite == "image-tree":
        if result.variant != "cc":
            return report
        q = cc_mod.compute_Q(result, _tp(result))
        report.add("image-is-tree", q.check_tree())
        return report
    raise ConfigError(f"unknown suite {suite!r}")


def cmd_verify(args) -> int:
    config = load_config(args.config)
    if args.suite == "none":
        suites = []
    elif args.suite:
        suites = [name for name in map(str.strip, args.suite.split(",")) if name]
    else:
        suites = list(SUITES)
    # Every name is checked before the run, so a bad one costs no run.
    for suite in suites:
        if suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}")
    result = run_stages(config)
    all_ok = True
    for suite in suites:
        report = run_suite(result, suite)
        for line in report.lines():
            print(f"[{suite}] {line}")
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


# Extraction target -> (the variant it needs, what it extracts); the parser
# offers these targets alone.
EXTRACT_TARGETS = {"q": ("cc", "image-tree"), "paths": ("dc", "path"),
                   "isomorphism": ("cc", "isomorphism")}


def cmd_extract(args) -> int:
    config = load_config(args.config)
    variant, what = EXTRACT_TARGETS[args.target]
    if config.variant != variant:
        raise ConfigError(f"{what} extraction needs a {variant} run")
    if args.target == "isomorphism" and not 0 <= args.adversary < len(config.adversaries):
        raise ConfigError(f"--adversary {args.adversary} is out of range: "
                          f"the config has {len(config.adversaries)} adversaries")
    result = run_stages(config)
    entries = _tp(result)
    out = Path(args.out)
    if args.target == "q":
        q = cc_mod.compute_Q(result, entries)
        data = {
            "phi": {
                format_string(pi): format_string(sigma)
                for pi, sigma in sorted(q.phi.items())
            },
            "is_tree": q.check_tree(),
        }
    elif args.target == "paths":
        paths = dc_mod.extract_paths(result, entries)
        data = {
            "f": {str(i): list(p) for i, p in sorted(paths.f.items())},
            "g": {str(j): list(p) for j, p in sorted(paths.g.items())},
            "witnesses_enumerated": dict(sorted(result.zprime.items())),
        }
    else:
        try:
            extracted = cc_mod.extract_isomorphism(result, entries, args.adversary)
        except cc_mod.ExtractionStalled as exc:
            print(f"ExtractionStalled: {exc}", file=sys.stderr)
            return 1
        data = {
            "adversary": args.adversary,
            # json.dumps sorts the keys.
            "map": {format_elem(e): x for e, x in extracted.source_to_copy.items()},
            "stalls": extracted.stalls,
        }
    _write_chunks(out, [json.dumps(data, sort_keys=True, indent=1) + "\n"])
    print(f"wrote {out}")
    if args.target == "isomorphism" and data["stalls"]:
        print(f"warning: {len(data['stalls'])} extraction stalls", file=sys.stderr)
    return 0


def cmd_replay(args) -> int:
    config = load_config(args.config)
    result = run_stages(config)
    base = Path(args.trace)
    ok = True
    for name, chunks in artifact_texts(result):
        if not _same_chunks(base / name, chunks):
            ok = False
            print(f"{name} differs")
    print("replay identical" if ok else "replay DIFFERS")
    return 0 if ok else 1


def cmd_gen_adversary(args) -> int:
    delay = at_least(args.delay, 0, "--delay")
    block = at_least(args.block, 1, "--block")
    defects = ()
    if args.omit_label:
        spec = re.fullmatch(r"(\d+)@((?:\d+(?:,\d+)*)?)", args.omit_label)
        if spec is None:
            raise ConfigError("--omit-label must be n@j1,j2,...")
        n, sig = spec.groups()
        defects = (Defect("omit_label", n=int(n),
                          sigma=tuple(int(p) for p in sig.split(",") if p)),)
    config = load_config(args.config)
    result = run_stages(config)
    perm = PermSpec()
    if block > 1:
        perm = PermSpec("block_rotate", block, args.shift)
    adv = make_faithful_copy(result, permutation=perm, delay=delay,
                             defects=defects)
    lines = adv.stream.to_lines()
    _write_chunks(Path(args.out),
                  _chunks(iter(lambda: list(islice(lines, CHUNK_LINES)), [])))
    print(f"wrote {args.out} ({len(adv.stream)} facts)")
    return 0


def build_parser():
    import argparse  # deferred: only the command line needs it, and it pulls in gettext

    parser = argparse.ArgumentParser(
        prog="cubetree",
        description="Priority-construction simulator over labeled cube structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a construction and write artifacts")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="rerun a config and check claim suites")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--suite", default="",
                          help=f"comma-separated subset of {','.join(SUITES)}")
    p_verify.set_defaults(func=cmd_verify)

    p_extract = sub.add_parser("extract", help="extract post-run artifacts")
    p_extract.add_argument("--config", required=True)
    p_extract.add_argument("--target", required=True, choices=tuple(EXTRACT_TARGETS))
    p_extract.add_argument("--adversary", type=int, default=0)
    p_extract.add_argument("--out", required=True)
    p_extract.set_defaults(func=cmd_extract)

    p_replay = sub.add_parser("replay", help="rerun and compare artifacts byte for byte")
    p_replay.add_argument("--config", required=True)
    p_replay.add_argument("--trace", required=True)
    p_replay.set_defaults(func=cmd_replay)

    p_gen = sub.add_parser("gen-adversary", help="write an adversary fact file")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--delay", type=int, default=1)
    p_gen.add_argument("--block", type=int, default=1)
    p_gen.add_argument("--shift", type=int, default=0)
    p_gen.add_argument("--omit-label", default="",
                       help="defect spec n@j1,j2,... omitting label n at that string")
    p_gen.set_defaults(func=cmd_gen_adversary)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # not a path refused on opening, e.g. a full disk
            raise
        print(f"error: cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
