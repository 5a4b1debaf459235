"""cubetree benchmark: time to a verified run, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs one workload config
in a fresh single-threaded subprocess (perfbench/child.py), one at a time:
set-up, Engine.run, every claim suite, and the artifact export.  Repetitions
continue until S seconds have passed (at least MIN_REPS); every metric is
the median over them.  This is a closed batch: one run after another, with
the workload's horizon as the input size.

Every repetition is checked: each claim-suite result, each modulus verdict
and the SHA-256 of each artifact count as one check.  At the default seed
the digests must equal perfbench/golden.json; at any seed they must agree
across repetitions.  A repetition that crashes or times out counts every
check as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics: the phase times of the untraced repetitions, the span metrics of
the traced ones, and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
# Every run must end within 180 s; stop starting repetitions well before.
DEADLINE_S = 150
OUT = Path(".perfbench_out")

# Metric -> (unit, better), measured by the untraced repetitions.  Only the
# first four are BENCHMARK.json end-to-end metrics.  The phase times are
# per-layer metrics: on a 2-vCPU VM whose speed drifts by 20-40% over tens of
# seconds, their medians over ten seeds spread by 0.21-0.36 (interquartile
# range over median), more than the largest bound of 0.25 allows, while
# total_s, which contains them all, spread by 0.21.
UNTRACED = {
    "total_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "events_per_s": ("events/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "run_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "export_s": ("s", "lower"),
}
END_TO_END = dict(list(UNTRACED.items())[:4])


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # Bytecode goes under the output directory, not into src/.
    env["PYTHONPYCACHEPREFIX"] = str(root / OUT / "pycache")
    return env


def run_child(root: Path, data: dict, out_dir: Path, traced: bool,
              timeout: float) -> dict | None:
    """One repetition; None if it crashed, timed out or printed no result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--config", json.dumps(data),
           "--out", str(out_dir)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:])
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Tally:
    """Checks attempted and failed over a run's repetitions."""

    def __init__(self, golden: dict[str, str] | None) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.per_rep = 1
        self.notes: list[str] = []

    def crashed(self) -> None:
        self.attempted += self.per_rep
        self.failed += self.per_rep
        self.notes.append("a repetition crashed or timed out")

    def record(self, rep: dict, expect_triples: bool) -> None:
        checks = rep["checks"]
        failed = list(rep["failed_checks"])
        if expect_triples:
            checks += 1
            if rep["modulus_triples"] == 0:
                failed.append("modulus:triples-exist")
        reference = self.golden
        if reference is None:
            # No golden digests at this seed: the first repetition is the
            # reference the others must reproduce.
            self.golden = reference = rep["digests"]
        for name, digest in rep["digests"].items():
            checks += 1
            if digest != reference.get(name):
                failed.append(f"digest:{name}")
        self.per_rep = max(self.per_rep, checks)
        self.attempted += checks
        self.failed += len(failed)
        self.notes.extend(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_begin = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "cubetree" / "__init__.py").is_file():
        print("error: run from the root of a cubetree checkout (no src/cubetree)",
              file=sys.stderr)
        return 2
    warm = subprocess.run([sys.executable, "-c", "import cubetree.cli"], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=60)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr)
        print("error: cubetree does not import", file=sys.stderr)
        return 2

    data = workloads.config_for(args.workload, args.seed)
    golden = None
    if args.seed == workloads.DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    tally = Tally(golden)
    expect_triples = args.workload in workloads.EXPECT_MODULUS_TRIPLES
    out_dir = root / OUT / args.workload
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - t_begin
        enough = len(plain) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
        if enough and elapsed >= args.seconds:
            break
        if elapsed + 2 * longest > DEADLINE_S:
            break
        use_trace = bool(args.trace) and len(traced) < len(plain)
        t0 = time.monotonic()
        rep = run_child(root, data, out_dir, use_trace, DEADLINE_S + 20 - elapsed)
        longest = max(longest, time.monotonic() - t0)
        if rep is None:
            tally.crashed()
            break
        tally.record(rep, expect_triples)
        (traced if use_trace else plain).append(rep)

    if not plain or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    metrics: dict[str, tuple[float, str]] = {}
    spread: dict[str, tuple[float, float]] = {}
    for name, (unit, _better) in UNTRACED.items():
        if name == "events_per_s":
            values = [r["events"] / r["run_s"] for r in plain]
        else:
            values = [r[name] for r in plain]
        q1, med, q3 = quartiles(values)
        metrics[name] = (med, unit)
        spread[name] = (q1, q3)
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(r["total_s"] for r in traced) - metrics["total_s"][0])
        for name in ("run_s", "verify_s", "export_s"):
            layers[name] = metrics[name][0]
        report = {name: (layers[name], unit)
                  for name, (unit, _better) in tracing.PER_LAYER.items()}
    else:
        report = {name: metrics[name] for name in END_TO_END}

    fail_ratio = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed} horizon {data['horizon']}: "
          f"{len(plain)} untraced, {len(traced)} traced repetitions")
    for name, (value, unit) in metrics.items():
        q1, q3 = spread[name]
        print(f"{name} = {value:.6g} {unit}  (quartiles {q1:.6g} .. {q3:.6g})")
    print(f"fail_ratio = {fail_ratio:.6g} ratio  ({tally.failed} of {tally.attempted} checks)")
    for note in sorted(set(tally.notes))[:20]:
        print(f"failed: {note}")
    if args.trace:
        for name, (value, unit) in report.items():
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
