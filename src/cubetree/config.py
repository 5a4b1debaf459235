"""Run configuration: JSON schema, validation, canonical serialization.

Configs are plain JSON so runs are reproducible from a single file.  Strings
of naturals appear as JSON arrays of ints.  The canonical echo written into
run metadata is the parsed config re-serialized with sorted keys, so a rerun
from the same file is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .adversary import Defect, PermSpec
from .structure import UniverseSchedule
from .trees import TestTree, tree_from_lists


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AdvSpec:
    kind: str  # "faithful" | "file"
    label: str
    permutation: PermSpec = PermSpec()
    delay: int = 1
    defects: tuple[Defect, ...] = ()
    lines: tuple[str, ...] = ()
    path: str | None = None


@dataclass(frozen=True)
class FuncSpec:
    mother: int  # sort-0 mother slot whose value is diagonalized
    round: int  # priority round where the requirement enters the ordering
    functional: "object"  # dc.Functional; untyped here to avoid the import cycle


@dataclass(frozen=True)
class RunConfig:
    variant: str
    horizon: int
    universe: UniverseSchedule = UniverseSchedule()
    adversaries: tuple[AdvSpec, ...] = ()
    tree: TestTree | None = None
    mothers: int = 2
    phi: "object | None" = None  # dc.PhiPredicate
    functionals: tuple[FuncSpec, ...] = ()
    witness_base: int = 1_000_000
    tp_threshold: int = 3
    tp_window: int | None = None
    raw: str = "{}"


def at_least(value, minimum: int, key: str) -> int:
    """value as an int; a ConfigError naming the key when it is below minimum."""
    n = int(value)
    if n < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {n}")
    return n


def required(data: dict, key: str, where: str):
    """data[key]; a ConfigError naming where.key when the key is missing."""
    if key not in data:
        raise ConfigError(f"{where}.{key} is required")
    return data[key]


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def parse_permutation(data: dict | None, where: str) -> PermSpec:
    if not data:
        return PermSpec()
    kind = data.get("kind", "identity")
    if kind == "identity":
        return PermSpec()
    if kind == "block_rotate":
        return PermSpec("block_rotate",
                        at_least(required(data, "block", where), 1, f"{where}.block"),
                        int(required(data, "shift", where)))
    raise ConfigError(f"unknown permutation kind {kind!r}")


def parse_defect(data: dict, where: str) -> Defect:
    kind = required(data, "kind", where)
    if kind == "omit_label":
        return Defect(
            "omit_label",
            n=int(required(data, "n", where)),
            sigma=tuple(required(data, "sigma", where)),
            sort=data.get("sort"),
        )
    if kind == "break_p":
        return Defect(
            "break_p",
            sigma=tuple(required(data, "sigma", where)),
            j=int(required(data, "j", where)),
            sort=data.get("sort"),
        )
    if kind == "freeze_after":
        return Defect("freeze_after", step=int(required(data, "step", where)))
    raise ConfigError(f"unknown defect kind {kind!r}")


def parse_adversary(data: dict, index: int, base_dir) -> AdvSpec:
    kind = data.get("kind", "faithful")
    label = data.get("label", f"adv{index}")
    where = f"adversaries[{index}]"
    if kind == "faithful":
        return AdvSpec(
            kind="faithful",
            label=label,
            permutation=parse_permutation(data.get("permutation"), f"{where}.permutation"),
            delay=at_least(data.get("delay", 1), 0, f"{where}.delay"),
            defects=tuple(parse_defect(d, f"{where}.defects[{j}]")
                          for j, d in enumerate(data.get("defects", []))),
        )
    if kind == "file":
        path = required(data, "path", where)
        full = path if base_dir is None else str(base_dir / path)
        with open(full, "r", encoding="utf-8") as fh:
            lines = tuple(fh.read().splitlines())
        return AdvSpec(kind="file", label=label, lines=lines, path=path)
    raise ConfigError(f"unknown adversary kind {kind!r}")


def parse_universe(data: dict | None) -> UniverseSchedule:
    if not data:
        return UniverseSchedule()
    cap = data.get("cap", 4)
    return UniverseSchedule(
        rate=at_least(data.get("rate", 1), 1, "universe.rate"),
        cap=None if cap is None else int(cap),
        f_rate=at_least(data.get("f_rate", 1), 1, "universe.f_rate"),
        f_cap=int(data.get("f_cap", 2)),
    )


def parse_tree(data: dict | None) -> TestTree | None:
    if data is None:
        return None
    nodes = [tuple(n) for n in data.get("nodes", [])]
    branches = [
        (tuple(required(b, "prefix", f"tree.branches[{i}]")),
         tuple(required(b, "period", f"tree.branches[{i}]")))
        for i, b in enumerate(data.get("branches", []))
    ]
    return tree_from_lists(nodes, branches)


def config_from_dict(data: dict, base_dir=None) -> RunConfig:
    from . import dc  # deferred: dc pulls in the engine

    variant = data.get("variant")
    if variant not in ("cc", "dc"):
        raise ConfigError(f"variant must be 'cc' or 'dc', got {variant!r}")
    horizon = at_least(data.get("horizon", 0), 1, "horizon")
    adversaries = tuple(
        parse_adversary(d, i, base_dir) for i, d in enumerate(data.get("adversaries", []))
    )
    tp = data.get("true_path", {})
    phi = dc.phi_from_dict(data["phi"]) if "phi" in data else None
    functionals = tuple(
        FuncSpec(
            mother=int(required(d, "mother", f"functionals[{i}]")),
            round=int(required(d, "round", f"functionals[{i}]")),
            functional=dc.functional_from_dict(d, f"functionals[{i}]"),
        )
        for i, d in enumerate(data.get("functionals", []))
    )
    return RunConfig(
        variant=variant,
        horizon=horizon,
        universe=parse_universe(data.get("universe")),
        adversaries=adversaries,
        tree=parse_tree(data.get("tree")),
        mothers=int(data.get("mothers", 2)),
        phi=phi,
        functionals=functionals,
        witness_base=int(data.get("witness_base", 1_000_000)),
        tp_threshold=int(tp.get("threshold", 3)),
        tp_window=tp.get("window"),
        raw=canonical_json(data),
    )


def load_config(path) -> RunConfig:
    from pathlib import Path

    p = Path(path)
    with open(p, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return config_from_dict(data, base_dir=p.parent)
