"""Benchmark workloads: cubetree run configs derived from a seed.

Each workload is one config run end to end.  The seed picks the adversary
and predicate parameters from the ranges documented in ``RANGES``; the
default seed reproduces the parameters already used in the repository
(``CC_FAITHFUL`` and ``DC_MODULUS`` in ``tests/test_acceptance.py``, and
``configs/dc_diagonal.json``), at the benchmark's own horizons.  Why each
workload exists is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import copy
import random

DEFAULT_SEED = 0
# Seed kept out of every tuning run; later performance claims must also
# hold on it.
HELD_OUT_SEED = 7919

# Horizons sized so one repetition takes a few seconds on a 2-core machine.
HORIZONS = {"cc_match": 200, "dc_modulus": 150, "dc_match": 50}

BASE = {
    "cc_match": {
        "variant": "cc",
        "universe": {"rate": 40, "cap": 4, "f_rate": 60, "f_cap": 2},
        "tree": {"nodes": [[0], [1], [0, 0], [0, 1]]},
        "adversaries": [
            {"kind": "faithful", "label": "ident", "delay": 1},
            {
                "kind": "faithful",
                "label": "perm",
                "delay": 3,
                "permutation": {"kind": "block_rotate", "block": 8, "shift": 3},
            },
        ],
        "true_path": {"threshold": 3},
    },
    "dc_modulus": {
        "variant": "dc",
        "universe": {"rate": 100, "cap": 3, "f_rate": 150, "f_cap": 2},
        "mothers": 2,
        "phi": {
            "range": 10,
            "default": {"kind": "until", "s0": 12},
            "rules": {"6": {"kind": "until", "s0": 30}, "8": {"kind": "never"}},
        },
        "adversaries": [],
        "true_path": {"threshold": 3},
    },
    "dc_match": {
        "variant": "dc",
        "universe": {"rate": 50, "cap": 3, "f_rate": 80, "f_cap": 2},
        "mothers": 2,
        "phi": {"range": 10, "default": {"kind": "until", "s0": 12}},
        "functionals": [
            {"mother": 0, "round": 4, "kind": "length_threshold",
             "min_len": 3, "value": 0}
        ],
        "adversaries": [{"kind": "faithful", "label": "ident", "delay": 2}],
        "true_path": {"threshold": 3},
    },
}

# Inclusive ranges each seeded parameter is drawn from, per workload.  The
# shift of a block rotation is drawn from 1 .. block - 1.
#
# Adversary delays move the amount of work most, so their ranges are narrow.
# cc_match's permuted copy at delay 2 or 3 costs within about 8% of each
# other (delay 4 makes 20% fewer label-store and fact-stream calls); its
# identity copy keeps delay 1 as the reference copy.  dc_match keeps its
# delay of 2: the pair matcher's pool scans fall from 12.1M to 9.1M and 6.8M
# at delays 3 and 4, so a seeded delay would set the run time by itself.
# Block, shift, min_len and the until thresholds move the work by a few
# percent at most.
RANGES = {
    "cc_match": {
        "perm.delay": (2, 3),
        "perm.block": (4, 12),
    },
    "dc_modulus": {
        "phi.default.s0": (8, 16),
        "phi.rule6.s0": (20, 40),
    },
    "dc_match": {
        "phi.default.s0": (8, 16),
        "functional.min_len": (2, 4),
    },
}

WORKLOADS = tuple(BASE)

# Workloads whose modulus sweep must find (i, j, n) triples to check.  On
# dc_match none can exist: its mother values (2, 3, 11, 12) leave no n
# between j and the predicate range of 10.
EXPECT_MODULUS_TRIPLES = {"dc_modulus"}


def config_for(name: str, seed: int, horizon: int | None = None) -> dict:
    """The run config of workload `name` at `seed` (a plain JSON dict)."""
    data = copy.deepcopy(BASE[name])
    data["horizon"] = HORIZONS[name] if horizon is None else horizon
    if seed == DEFAULT_SEED:
        return data
    rng = random.Random(f"{name}:{seed}")
    ranges = RANGES[name]

    def draw(key: str) -> int:
        return rng.randint(*ranges[key])

    if name == "cc_match":
        perm = data["adversaries"][1]
        perm["delay"] = draw("perm.delay")
        block = draw("perm.block")
        perm["permutation"] = {"kind": "block_rotate", "block": block,
                               "shift": rng.randint(1, block - 1)}
    elif name == "dc_modulus":
        data["phi"]["default"]["s0"] = draw("phi.default.s0")
        data["phi"]["rules"]["6"]["s0"] = draw("phi.rule6.s0")
    else:
        data["phi"]["default"]["s0"] = draw("phi.default.s0")
        data["functionals"][0]["min_len"] = draw("functional.min_len")
    return data
