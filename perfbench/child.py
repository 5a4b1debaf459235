"""One measured repetition of a workload, in a fresh process.

    python3 perfbench/child.py --config '<json>' --out DIR [--trace]

Runs the config the way a user reaches a verdict: build the engine, run it,
check every claim suite (plus path extraction and the modulus sweep on a
two-sorted run), and write the artifacts.  Prints one JSON line with the
phase times, the check tally, the artifact digests and the peak RSS.  With
--trace it also installs the span wrappers of tracing.py, writes the spans
to DIR and adds the per-layer metrics.

cubetree is imported inside the timed set-up phase, so the interpreter's own
start-up is the only part of the process left untimed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ARTIFACTS = ("trace.log", "snapshot.log", "meta.json")


def modulus_sweep(dc, result, entries, checks: list[tuple[str, bool]]) -> int:
    """Acceptance criterion 7 over the finished run: every applicable
    (i, j, n) triple satisfies the modulus property.  Returns the number of
    triples swept."""
    phi = result.cfg.phi
    paths = dc.extract_paths(result, entries)
    triples = [
        (i, j, n)
        for i in sorted(paths.f)
        for j in sorted(paths.g)
        if i < j
        for n in range(j + 1, phi.range_n)
        if paths.value(0, i, n) is not None and paths.value(1, j, n) is not None
    ]
    applicable = 0
    for i, j, n in triples:
        verdict = dc.modulus_check(paths, i, j, n, phi, result.horizon)
        if verdict.applicable:
            applicable += 1
            checks.append((f"modulus:{i},{j},{n}", verdict.holds))
    checks.append(("modulus:coverage",
                   applicable >= len(triples) - len(phi.declared_Z())))
    return len(triples)


def pipeline(data: dict, out_dir: Path, rec=None) -> dict:
    """Set up, run, verify and export one config; returns the timings and
    the (name, ok) list of every check."""
    t0 = T_START
    # Modules, not names, are imported: traced mode replaces module attributes.
    import cubetree.cli as cli
    import cubetree.config as config
    import cubetree.dc as dc
    import cubetree.engine as engine_mod

    if rec is not None:
        import tracing

        tracing.install(rec)
    cfg = config.config_from_dict(data)
    engine = engine_mod.Engine(cfg)
    t1 = time.perf_counter()
    result = engine.run()
    t2 = time.perf_counter()
    checks: list[tuple[str, bool]] = []
    entries = engine_mod.true_path_approx(result, threshold=cfg.tp_threshold, window=cfg.tp_window)
    for suite in cli.SUITES:
        report = cli.run_suite(result, suite)
        checks.extend((f"{suite}:{r.name}", r.ok) for r in report.results)
    triples = modulus_sweep(dc, result, entries, checks) if result.variant == "dc" else 0
    t3 = time.perf_counter()
    cli.write_artifacts(result, out_dir)
    t4 = time.perf_counter()
    return {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "verify_s": t3 - t2,
        "export_s": t4 - t3,
        "total_s": t4 - t0,
        "events": len(result.trace),
        "checks": checks,
        "modulus_triples": triples,
        "run_counts": {
            "engine.trace_events": len(result.trace),
            "engine.visits": sum(len(n.visits) for n in result.nodes.values()),
            "adversary.facts": sum(len(a.stream) for a in result.adversaries),
        },
    }


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    out_dir = Path(args.out)
    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
    report = pipeline(json.loads(args.config), out_dir, rec)
    checks = report.pop("checks")
    run_counts = report.pop("run_counts")
    report.update(
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        checks=len(checks),
        failed_checks=[name for name, ok in checks if not ok],
        digests=digests(out_dir),
    )
    if rec is not None:
        report["layers"] = tracing.layer_metrics(rec, run_counts)
        rec.dump(out_dir)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
