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
from .structure import UniverseSchedule, sorts
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


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def integer(value, key: str) -> int:
    """value; a ConfigError naming the key unless it is a JSON integer (not a
    float, a boolean or a string)."""
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def at_least(value, minimum: int, key: str) -> int:
    """value as an int; a ConfigError naming the key when it is below minimum."""
    n = integer(value, key)
    if n < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {n}")
    return n


def required(data: dict, key: str, where: str):
    """data[key]; a ConfigError naming where.key when the key is missing."""
    if key not in data:
        raise ConfigError(f"{_path(where, key)} is required")
    return data[key]


def read_int(data: dict, key: str, where: str, default: int | None = None) -> int:
    """data[key] as an int: required when there is no default."""
    value = required(data, key, where) if default is None else data.get(key, default)
    return integer(value, _path(where, key))


def as_object(data, where: str) -> dict:
    """data; a ConfigError naming where when it is not a JSON object."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    return data


def as_list(data, where: str) -> list:
    """data; a ConfigError naming where when it is not a JSON array."""
    if not isinstance(data, list):
        raise ConfigError(f"{where} must be a JSON array, got {data!r}")
    return data


def naturals(data, where: str) -> tuple[int, ...]:
    """data as a tuple; a ConfigError naming where unless it is an array of naturals."""
    if not all(type(n) is int and n >= 0 for n in as_list(data, where)):
        raise ConfigError(f"{where} must be an array of naturals, got {data!r}")
    return tuple(data)


def only_keys(data: dict, where: str, *keys: str) -> None:
    """A ConfigError naming the first key of data that its parser does not read."""
    for key in data:
        if key not in keys:
            raise ConfigError(f"{_path(where, key)} is not a known key")


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def parse_permutation(data, where: str) -> PermSpec:
    if data is None:
        return PermSpec()
    kind = as_object(data, where).get("kind", "identity")
    if kind == "identity":
        only_keys(data, where, "kind")
        return PermSpec()
    if kind == "block_rotate":
        only_keys(data, where, "kind", "block", "shift")
        return PermSpec("block_rotate",
                        at_least(required(data, "block", where), 1, f"{where}.block"),
                        read_int(data, "shift", where))
    raise ConfigError(f"unknown permutation kind {kind!r}")


def parse_sort(data: dict, where: str, variant: str) -> int | None:
    """data["sort"]: absent, null or a sort of the variant."""
    sort = data.get("sort")
    if sort is not None and (type(sort) is not int or sort not in sorts(variant)):
        valid = ["null", *(str(a) for a in sorts(variant) if a is not None)]
        raise ConfigError(f"{where}.sort must be {' or '.join(valid)} in a {variant} "
                          f"config, got {sort!r}")
    return sort


def parse_defect(data, where: str, variant: str) -> Defect:
    kind = required(as_object(data, where), "kind", where)
    if kind == "omit_label":
        only_keys(data, where, "kind", "n", "sigma", "sort")
        return Defect(
            "omit_label",
            n=read_int(data, "n", where),
            sigma=naturals(required(data, "sigma", where), f"{where}.sigma"),
            sort=parse_sort(data, where, variant),
        )
    if kind == "break_p":
        only_keys(data, where, "kind", "sigma", "j", "sort")
        return Defect(
            "break_p",
            sigma=naturals(required(data, "sigma", where), f"{where}.sigma"),
            j=read_int(data, "j", where),
            sort=parse_sort(data, where, variant),
        )
    if kind == "freeze_after":
        only_keys(data, where, "kind", "step")
        return Defect("freeze_after", step=read_int(data, "step", where))
    raise ConfigError(f"unknown defect kind {kind!r}")


def parse_adversary(data, index: int, base_dir, variant: str) -> AdvSpec:
    where = f"adversaries[{index}]"
    kind = as_object(data, where).get("kind", "faithful")
    label = data.get("label", f"adv{index}")
    if kind == "faithful":
        only_keys(data, where, "kind", "label", "permutation", "delay", "defects")
        return AdvSpec(
            kind="faithful",
            label=label,
            permutation=parse_permutation(data.get("permutation"), f"{where}.permutation"),
            delay=at_least(data.get("delay", 1), 0, f"{where}.delay"),
            defects=tuple(parse_defect(d, f"{where}.defects[{j}]", variant) for j, d
                          in enumerate(as_list(data.get("defects", []), f"{where}.defects"))),
        )
    if kind == "file":
        only_keys(data, where, "kind", "label", "path")
        path = required(data, "path", where)
        full = path if base_dir is None else str(base_dir / path)
        with open(full, "r", encoding="utf-8") as fh:
            lines = tuple(fh.read().splitlines())
        return AdvSpec(kind="file", label=label, lines=lines, path=path)
    raise ConfigError(f"unknown adversary kind {kind!r}")


def parse_universe(data) -> UniverseSchedule:
    if data is None:
        return UniverseSchedule()
    only_keys(as_object(data, "universe"), "universe", "rate", "cap", "f_rate", "f_cap")
    cap = data.get("cap", 4)
    return UniverseSchedule(
        rate=at_least(data.get("rate", 1), 1, "universe.rate"),
        cap=None if cap is None else integer(cap, "universe.cap"),
        f_rate=at_least(data.get("f_rate", 1), 1, "universe.f_rate"),
        f_cap=read_int(data, "f_cap", "universe", 2),
    )


def parse_tree(data) -> TestTree | None:
    if data is None:
        return None
    only_keys(as_object(data, "tree"), "tree", "nodes", "branches")
    nodes = [naturals(n, f"tree.nodes[{i}]")
             for i, n in enumerate(as_list(data.get("nodes", []), "tree.nodes"))]
    branches = []
    for i, b in enumerate(as_list(data.get("branches", []), "tree.branches")):
        where = f"tree.branches[{i}]"
        only_keys(as_object(b, where), where, "prefix", "period")
        branches.append((naturals(required(b, "prefix", where), f"{where}.prefix"),
                         naturals(required(b, "period", where), f"{where}.period")))
    return tree_from_lists(nodes, branches)


def parse_functional(data, where: str) -> FuncSpec:
    from . import dc  # deferred: dc pulls in the engine

    as_object(data, where)
    rest = {k: v for k, v in data.items() if k not in ("mother", "round")}
    return FuncSpec(
        mother=read_int(data, "mother", where),
        round=read_int(data, "round", where),
        functional=dc.functional_from_dict(rest, where),
    )


def config_from_dict(data: dict, base_dir=None) -> RunConfig:
    from . import dc  # deferred: dc pulls in the engine

    only_keys(as_object(data, "config"), "", "variant", "horizon", "universe", "adversaries",
              "tree", "mothers", "phi", "functionals", "witness_base", "true_path")
    variant = data.get("variant")
    if variant not in ("cc", "dc"):
        raise ConfigError(f"variant must be 'cc' or 'dc', got {variant!r}")
    horizon = at_least(data.get("horizon", 0), 1, "horizon")
    adversaries = tuple(parse_adversary(d, i, base_dir, variant) for i, d
                        in enumerate(as_list(data.get("adversaries", []), "adversaries")))
    tp = as_object(data.get("true_path", {}), "true_path")
    only_keys(tp, "true_path", "threshold", "window")
    window = tp.get("window")
    phi = dc.phi_from_dict(data["phi"]) if "phi" in data else None
    functionals = tuple(parse_functional(d, f"functionals[{i}]") for i, d
                        in enumerate(as_list(data.get("functionals", []), "functionals")))
    return RunConfig(
        variant=variant,
        horizon=horizon,
        universe=parse_universe(data.get("universe")),
        adversaries=adversaries,
        tree=parse_tree(data.get("tree")),
        mothers=read_int(data, "mothers", "", 2),
        phi=phi,
        functionals=functionals,
        witness_base=read_int(data, "witness_base", "", 1_000_000),
        tp_threshold=at_least(tp.get("threshold", 3), 1, "true_path.threshold"),
        tp_window=None if window is None else at_least(window, 1, "true_path.window"),
        raw=canonical_json(data),
    )


def load_config(path) -> RunConfig:
    from pathlib import Path

    p = Path(path)
    with open(p, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return config_from_dict(data, base_dir=p.parent)
