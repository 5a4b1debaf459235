"""Command-line front end.

Subcommands: run a construction and write its artifacts, verify claim
suites over a rerun, extract post-run artifacts (image tree, path prefixes,
isomorphism), replay a config and compare outputs byte for byte, and
generate adversary files.  Exit codes: 0 success, 1 check failure, 2
usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cc as cc_mod
from . import dc as dc_mod
from . import verify as verify_mod
from .adversary import Defect, PermSpec, make_faithful_copy
from .config import ConfigError, load_config
from .engine import RunResult, run_stages, true_path_approx
from .structure import format_elem, format_string

VERSION = "0.1.0"


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


def artifact_texts(result: RunResult):
    """(file name, text) of each artifact of a run, built one at a time."""
    yield "trace.log", "\n".join(result.trace_lines()) + "\n"
    yield "snapshot.log", "\n".join(result.snapshot().dump_lines()) + "\n"
    meta = {
        "version": VERSION,
        "config": json.loads(result.cfg.raw),
        "true_path": _tp_summary(_tp(result)),
        "witnesses": dict(sorted(result.zprime.items())),
    }
    yield "meta.json", json.dumps(meta, sort_keys=True, indent=1) + "\n"


def write_artifacts(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in artifact_texts(result):
        (out_dir / name).write_text(text, encoding="utf-8")
        del text  # free one file's text before the next one is built


def cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_stages(config)
    write_artifacts(result, Path(args.out))
    print(f"ran {config.variant} to stage {config.horizon}; artifacts in {args.out}")
    return 0


SUITES = ("invariants", "labeling", "isomorphism", "image-tree")


def run_suite(result: RunResult, suite: str) -> verify_mod.Report:
    report = verify_mod.Report()
    entries = _tp(result)
    if suite == "invariants":
        return verify_mod.check_trace_invariants(result)
    if suite == "labeling":
        s0 = max(1, result.horizon // 2)
        return verify_mod.check_labeling(result, entries, s0, result.horizon)
    if suite == "isomorphism":
        if result.variant != "cc":
            return report
        for idx, adv in enumerate(result.adversaries):
            if not adv.to_ground or adv.permutation is None:
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
        q = cc_mod.compute_Q(result, entries)
        report.add("image-is-tree", q.check_tree())
        return report
    raise ConfigError(f"unknown suite {suite!r}")


def cmd_verify(args) -> int:
    config = load_config(args.config)
    result = run_stages(config)
    if args.suite == "none":
        return 0
    suites = args.suite.split(",") if args.suite else list(SUITES)
    all_ok = True
    for suite in suites:
        suite = suite.strip()
        if not suite:
            continue
        report = run_suite(result, suite)
        for line in report.lines():
            print(f"[{suite}] {line}")
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


def cmd_extract(args) -> int:
    config = load_config(args.config)
    result = run_stages(config)
    entries = _tp(result)
    out = Path(args.out)
    if args.target == "q":
        if result.variant != "cc":
            raise ConfigError("image-tree extraction needs a cc run")
        q = cc_mod.compute_Q(result, entries)
        data = {
            "phi": {
                format_string(pi): format_string(sigma)
                for pi, sigma in sorted(q.phi.items())
            },
            "is_tree": q.check_tree(),
        }
    elif args.target == "paths":
        if result.variant != "dc":
            raise ConfigError("path extraction needs a dc run")
        paths = dc_mod.extract_paths(result, entries)
        data = {
            "f": {str(i): list(p) for i, p in sorted(paths.f.items())},
            "g": {str(j): list(p) for j, p in sorted(paths.g.items())},
            "witnesses_enumerated": dict(sorted(result.zprime.items())),
        }
    elif args.target == "isomorphism":
        if result.variant != "cc":
            raise ConfigError("isomorphism extraction needs a cc run")
        extracted = cc_mod.extract_isomorphism(result, entries, args.adversary)
        data = {
            "adversary": args.adversary,
            "map": {
                format_elem(e): x
                for e, x in sorted(
                    extracted.source_to_copy.items(),
                    key=lambda kv: format_elem(kv[0]),
                )
            },
            "stalls": extracted.stalls,
        }
    else:
        raise ConfigError(f"unknown extraction target {args.target!r}")
    out.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if args.target == "isomorphism" and data["stalls"]:
        print(f"warning: {len(data['stalls'])} extraction stalls", file=sys.stderr)
    return 0


def cmd_replay(args) -> int:
    config = load_config(args.config)
    result = run_stages(config)
    base = Path(args.trace)
    ok = True
    for name, text in artifact_texts(result):
        if (base / name).read_text(encoding="utf-8") != text:
            ok = False
            print(f"{name} differs")
    print("replay identical" if ok else "replay DIFFERS")
    return 0 if ok else 1


def cmd_gen_adversary(args) -> int:
    config = load_config(args.config)
    result = run_stages(config)
    perm = PermSpec()
    if args.block > 1:
        perm = PermSpec("block_rotate", args.block, args.shift)
    defects = ()
    if args.omit_label:
        n, sig = args.omit_label.split("@", 1)
        defects = (Defect("omit_label", n=int(n),
                          sigma=tuple(int(p) for p in sig.split(",") if p)),)
    adv = make_faithful_copy(result, permutation=perm, delay=args.delay,
                             defects=defects)
    Path(args.out).write_text(
        "\n".join(adv.stream.to_lines()) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out} ({len(adv.stream)} facts)")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_extract.add_argument("--target", required=True,
                           choices=("q", "paths", "isomorphism"))
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
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
