"""Run configuration: JSON schema, validation, canonical serialization.

Configs are plain JSON so runs are reproducible from a single file.  Strings
of naturals appear as JSON arrays of ints.  The canonical echo written into
run metadata is the parsed config re-serialized with sorted keys, so a rerun
from the same file is byte-identical.

The format is one table per object kind: a key maps to (reader, default), or
to (reader, REQUIRED), and a reader takes the value and the key's full name.
Checks across keys, default labels and fact-file lines follow the tables.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .adversary import Defect, PermSpec
from .structure import UniverseSchedule, sorts
from .trees import TestTree, tree_from_lists


class ConfigError(ValueError):
    pass


class AdvSpec(NamedTuple):
    kind: str  # "faithful" | "file"
    label: str
    permutation: PermSpec = PermSpec()
    delay: int = 1
    defects: tuple[Defect, ...] = ()
    lines: tuple[str, ...] = ()
    path: str | None = None


class FuncSpec(NamedTuple):
    mother: int  # sort-0 mother slot whose value is diagonalized
    round: int  # priority round where the requirement enters the ordering
    functional: "object"  # dc.Functional; untyped here to avoid the import cycle


class RunConfig(NamedTuple):
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


REQUIRED = object()  # the default of a key that must be given


def read_fields(data, where: str, table: dict) -> dict:
    """Each key of table -> its value in the JSON object data, read by the
    key's reader, or the key's default when data lacks it."""
    prefix = f"{where}." if where else ""
    for key in as_object(data, where):
        if key not in table:
            raise ConfigError(f"{prefix}{key} is not a known key")
    fields = {}
    for key, (read, default) in table.items():
        if key in data:
            fields[key] = read(data[key], prefix + key)
        elif default is REQUIRED:
            raise ConfigError(f"{prefix}{key} is required")
        else:
            fields[key] = default
    return fields


def read_kind(noun: str, tables: dict, build, default=REQUIRED):
    """The reader of JSON objects whose "kind", or default, names the table
    in tables that reads their other keys; build takes the fields."""
    def read(data, where: str):
        kind = as_object(data, where).get("kind", default)
        if kind is REQUIRED:
            raise ConfigError(f"{where}.kind is required")
        if not isinstance(kind, str) or kind not in tables:
            raise ConfigError(f"unknown {noun} kind {kind!r}")
        rest = {key: value for key, value in data.items() if key != "kind"}
        return build(kind=kind, **read_fields(rest, where, tables[kind]))
    return read


def as_given(value, key: str):
    return value


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


def string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


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


def period(data, where: str) -> tuple[int, ...]:
    if not naturals(data, where):
        raise ConfigError(f"{where} must be a nonempty array of naturals, got {data!r}")
    return tuple(data)


def phi_rules(data, where: str) -> tuple[tuple[int, tuple], ...]:
    positions, keys = {}, {}
    for key, rule in as_object(data, where).items():
        # Any integer names a position; JSON keys are strings, so decimal text is read.
        n = int(key) if isinstance(key, str) and key.removeprefix("-").isdecimal() else key
        n = integer(n, f"{where} key")
        if n in keys:
            raise ConfigError(f"{where} keys {keys[n]!r} and {key!r} name one position, {n}")
        keys[n], positions[n] = key, rule
    return tuple((n, phi_rule(rule, f"{where}.{n}")) for n, rule in sorted(positions.items()))


def floor(minimum: int):
    """The reader of integers at least minimum."""
    return lambda value, key: at_least(value, minimum, key)


def optional(read):
    """The reader of null, or of what read reads."""
    return lambda value, key: None if value is None else read(value, key)


def array_of(read):
    """The reader of JSON arrays whose entries read reads, as a tuple."""
    return lambda value, key: tuple(read(v, f"{key}[{i}]")
                                    for i, v in enumerate(as_list(value, key)))


def fields_of(table: dict, build):
    """The reader of JSON objects that table reads; build takes the fields."""
    return lambda value, key: build(**read_fields(value, key, table))


def _phi(range, rules, default):
    from .dc import PhiPredicate  # deferred: dc pulls in the engine
    return PhiPredicate(range, rules, default)


def _functional(kind, mother, round, **fields) -> FuncSpec:
    from .dc import Functional  # deferred: dc pulls in the engine
    return FuncSpec(mother, round, Functional(kind, **fields))


UNIVERSE = {"rate": (floor(1), 1), "cap": (optional(floor(1)), 4),
            "f_rate": (floor(1), 1), "f_cap": (floor(0), 2)}
BRANCH = {"prefix": (naturals, REQUIRED), "period": (period, REQUIRED)}
TREE = {"nodes": (array_of(naturals), ()),
        "branches": (array_of(fields_of(BRANCH, lambda prefix, period: (prefix, period))), ())}
TRUE_PATH = {"threshold": (floor(1), 3), "window": (optional(floor(1)), None)}

PERMUTATIONS = {"identity": {},
                "block_rotate": {"block": (floor(1), REQUIRED), "shift": (integer, REQUIRED)}}
DEFECTS = {
    "omit_label": {"n": (floor(0), REQUIRED), "sigma": (naturals, REQUIRED),
                   "sort": (as_given, None)},
    "break_p": {"sigma": (naturals, REQUIRED), "j": (floor(0), REQUIRED),
                "sort": (as_given, None)},
    "freeze_after": {"step": (floor(0), REQUIRED)},
}
ADVERSARIES = {
    "faithful": {"label": (string, None),
                 "permutation": (read_kind("permutation", PERMUTATIONS, PermSpec, "identity"),
                                 PermSpec()),
                 "delay": (floor(0), 1),
                 "defects": (array_of(read_kind("defect", DEFECTS, Defect)), ())},
    "file": {"label": (string, None), "path": (string, REQUIRED)},
}

PHI_RULES = {"until": {"s0": (integer, REQUIRED)}, "periodic": {"period": (floor(1), REQUIRED)},
             "never": {}, "always": {}}
phi_rule = read_kind("phi rule", PHI_RULES, lambda kind, **fields: (kind, *fields.values()))
PHI = {"range": (floor(0), REQUIRED), "rules": (phi_rules, ()), "default": (phi_rule, ("never",))}
SLOT = {"mother": (floor(0), REQUIRED), "round": (integer, REQUIRED)}
FUNCTIONALS = {
    "constant": {**SLOT, "value": (integer, 0)},
    "length_threshold": {**SLOT, "value": (integer, 0), "min_len": (floor(0), REQUIRED)},
    "bit_probe": {**SLOT, "coord": (floor(0), 0), "pos": (floor(0), 0), "modulus": (floor(1), 2)},
    "never": SLOT,
}

# The top level: the shared keys and the keys of the config's variant.
SHARED = {
    "variant": (as_given, REQUIRED),
    "horizon": (floor(1), REQUIRED),
    "universe": (fields_of(UNIVERSE, UniverseSchedule), UniverseSchedule()),
    "adversaries": (array_of(read_kind("adversary", ADVERSARIES, AdvSpec, "faithful")), ()),
    "true_path": (fields_of(TRUE_PATH, lambda threshold, window: (threshold, window)), (3, None)),
}
VARIANTS = {
    "cc": {"tree": (fields_of(TREE, tree_from_lists), REQUIRED)},
    "dc": {"mothers": (floor(1), 2),
           "phi": (fields_of(PHI, _phi), REQUIRED),
           "functionals": (array_of(read_kind("functional", FUNCTIONALS, _functional)), ()),
           "witness_base": (floor(0), 1_000_000)},
}


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def read_text(path) -> str:
    """The text of the file at path; a ConfigError naming path if it is unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in path, or text not UTF-8
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"cannot read {path}: {reason}") from None


def _in_context(spec: AdvSpec, index: int, variant: str, base_dir) -> AdvSpec:
    """spec, its defect sorts checked, with its label and its fact file's lines."""
    for j, d in enumerate(spec.defects):
        if d.sort is not None and (type(d.sort) is not int or d.sort not in sorts(variant)):
            valid = ["null", *(str(a) for a in sorts(variant) if a is not None)]
            raise ConfigError(f"adversaries[{index}].defects[{j}].sort must be "
                              f"{' or '.join(valid)} in a {variant} config, got {d.sort!r}")
    lines = spec.lines
    if spec.kind == "file":
        path = spec.path if base_dir is None else base_dir / spec.path
        lines = tuple(read_text(path).splitlines())
    return spec._replace(label=f"adv{index}" if spec.label is None else spec.label, lines=lines)


def config_from_dict(data: dict, base_dir=None) -> RunConfig:
    variant = as_object(data, "config").get("variant")
    if variant not in ("cc", "dc"):
        raise ConfigError(f"variant must be 'cc' or 'dc', got {variant!r}")
    fields = read_fields(data, "", {**SHARED, **VARIANTS[variant]})
    fields["adversaries"] = tuple(_in_context(spec, i, variant, base_dir)
                                  for i, spec in enumerate(fields["adversaries"]))
    for i, spec in enumerate(fields.get("functionals", ())):
        if spec.mother >= fields["mothers"]:
            raise ConfigError(f"functionals[{i}].mother must be below mothers, got {spec.mother}")
        if spec.round <= spec.mother:
            raise ConfigError(f"functionals[{i}].round must be above its mother, got {spec.round}")
    tp_threshold, tp_window = fields.pop("true_path")
    return RunConfig(**fields, tp_threshold=tp_threshold, tp_window=tp_window,
                     raw=canonical_json(data))


def load_config(path) -> RunConfig:
    from pathlib import Path

    p = Path(path)
    try:
        data = json.loads(read_text(p))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    return config_from_dict(data, base_dir=p.parent)
