"""Differential test of the package's records against their dataclass forms.

Each record of the package was once a `@dataclass`; those definitions are
kept below, field for field, as the reference.  Value records are now
NamedTuples or `structure.Record`s and must print, compare and hash as the
references do; mutable state is a plain class whose fields start as the
reference's did.  The import gate at the end keeps `dataclasses` (and the
`inspect` it pulls in) off the package's import path.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from itertools import product
from pathlib import Path
from typing import Any

import pytest

from cubetree import adversary, cc, config, cube, dc, engine, match, structure, trees, verify

SRC = Path(__file__).resolve().parent.parent / "src"
E = frozenset()
UNIVERSE = structure.UniverseSchedule()


# ---------------------------------------------------------------------------
# The references: the dataclass definitions the records replaced.

@dataclass(frozen=True)
class CubeElem:
    fset: frozenset[int]
    sigma: tuple
    sort: int | None = None


@dataclass(frozen=True)
class UElem:
    k: int


@dataclass(frozen=True)
class UniverseSchedule:
    rate: int = 1
    cap: int | None = 4
    f_rate: int = 1
    f_cap: int = 2


@dataclass
class LabelStore:
    variant: str = "cc"
    _grows: dict = field(default_factory=dict)
    _direct: dict = field(default_factory=dict)
    _log: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Snapshot:
    variant: str
    stage: int
    store: Any
    strings: tuple
    fsets: tuple


@dataclass(frozen=True)
class ReqN:
    pi: tuple


@dataclass(frozen=True)
class ReqM:
    index: int


@dataclass(frozen=True)
class ReqMother:
    r: int
    a: int


@dataclass(frozen=True)
class ReqDaughter:
    r: int
    n: int
    a: int


@dataclass(frozen=True)
class ReqU:
    slot: int
    e: int


@dataclass(frozen=True)
class ReqIdle:
    pass


@dataclass
class Node:
    addr: tuple
    req: Any = None
    label: str = ""
    state: Any = None
    visits: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)


@dataclass(frozen=True)
class TPEntry:
    addr: tuple
    label: str
    outcome: str | None
    visits: int
    counts: dict


@dataclass
class FactStream:
    _first: dict = field(default_factory=dict)
    _age: dict = field(default_factory=dict)
    _w_index: dict = field(default_factory=dict)
    _e_index: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PermSpec:
    kind: str = "identity"
    block: int = 1
    shift: int = 0


@dataclass(frozen=True)
class Defect:
    kind: str
    n: int | None = None
    sigma: tuple | None = None
    j: int | None = None
    sort: int | None = None
    step: int | None = None


@dataclass
class Adversary:
    stream: Any
    label: str = "adversary"
    to_ground: dict = field(default_factory=dict)
    to_copy: dict = field(default_factory=dict)
    delay: int = 0


@dataclass
class TreeState:
    sigma: tuple


@dataclass(frozen=True)
class TreeQ:
    phi: dict


@dataclass
class ExtractedMap:
    source_to_copy: dict
    f_tau: dict
    stalls: list = field(default_factory=list)


@dataclass(frozen=True)
class GadgetStructure:
    base: Any
    constant: str


@dataclass(frozen=True)
class AdvSpec:
    kind: str
    label: str
    permutation: Any = adversary.PermSpec()
    delay: int = 1
    defects: tuple = ()
    lines: tuple = ()
    path: str | None = None


@dataclass(frozen=True)
class FuncSpec:
    mother: int
    round: int
    functional: Any


@dataclass(frozen=True)
class RunConfig:
    variant: str
    horizon: int
    universe: Any = UNIVERSE
    adversaries: tuple = ()
    tree: Any = None
    mothers: int = 2
    phi: Any = None
    functionals: tuple = ()
    witness_base: int = 1_000_000
    tp_threshold: int = 3
    tp_window: int | None = None
    raw: str = "{}"


@dataclass(frozen=True)
class CubeMap:
    dimension: int
    images: tuple

    def __post_init__(self) -> None:
        n = 1 << self.dimension
        if len(self.images) != n or len(set(self.images)) != n:
            raise ValueError("images must be a bijection on the cube vertices")


@dataclass(frozen=True)
class PhiPredicate:
    range_n: int
    rules: tuple = ()
    default: tuple = ("never",)


@dataclass(frozen=True)
class Functional:
    kind: str
    value: int = 0
    min_len: int = 0
    coord: int = 0
    pos: int = 0
    modulus: int = 2


@dataclass
class MotherState:
    v: int


@dataclass
class DaughterState:
    gamma: tuple
    k: int = 0
    t: int = 0
    sig: dict = field(default_factory=dict)


@dataclass
class DiagonalizerState:
    i: int
    x: int
    C: list
    stolen: dict | None = None
    ell: int = 0
    blocks: set = field(default_factory=set)


@dataclass(frozen=True)
class PathFamily:
    f: dict
    g: dict


@dataclass(frozen=True)
class ModulusVerdict:
    applicable: bool
    holds: bool


@dataclass
class MatcherState:
    C: list
    f: dict = field(default_factory=dict)
    k0: int = 0
    k1: int = 0
    t: int = 0
    x_at_t: dict = field(default_factory=dict)
    rank: dict = field(default_factory=dict)
    children: dict = field(default_factory=dict)
    pending: set = field(default_factory=set)
    queue: list = field(default_factory=list)
    unmapped: set = field(default_factory=set)
    B_t: int = 0
    scanned: int = 0


@dataclass(frozen=True)
class Branch:
    prefix: tuple
    period: tuple

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("branch period must be nonempty")


@dataclass(frozen=True)
class TestTree:
    __test__ = False  # not a pytest test class

    nodes: frozenset
    branches: tuple = ()

    def __post_init__(self) -> None:
        if () not in self.nodes:
            raise ValueError("tree must contain the empty string")
        for sigma in self.nodes:
            if sigma and sigma[:-1] not in self.nodes:
                raise ValueError(f"tree is not prefix-closed at {sigma}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    locus: str = ""


@dataclass
class Report:
    results: list = field(default_factory=list)


@dataclass(frozen=True)
class BuiltAutomorphism:
    sigma: tuple
    target: frozenset
    paths: tuple
    sort: int | None = None
    uswap: Any = None


# ---------------------------------------------------------------------------
# Samples: (record, reference) pairs built from the same field values.

BRANCH = trees.Branch((0,), (1, 2))
TREE = trees.TestTree(frozenset({(), (0,)}), (BRANCH,))
STORE = structure.LabelStore("dc")
PHI = dc.PhiPredicate(6, ((3, ("until", 4)), (3, ("never",))), ("always",))
CUBE_IMAGES = (E, frozenset({0}))

VALUES = [
    (structure.CubeElem, CubeElem, (frozenset({1}), (0, 2), 1)),
    (structure.CubeElem, CubeElem, (E, (), None)),
    (structure.UElem, UElem, (0,)),
    (structure.UElem, UElem, (1,)),
    (structure.UniverseSchedule, UniverseSchedule, (2, None, 3, 1)),
    (structure.Snapshot, Snapshot, ("dc", 4, STORE, (((), 0),), (E,))),
    (engine.ReqN, ReqN, ((0, 1),)),
    (engine.ReqN, ReqN, (0,)),
    (engine.ReqM, ReqM, (0,)),
    (engine.ReqMother, ReqMother, (0, 1)),
    (engine.ReqMother, ReqMother, (0, 1)),
    (engine.ReqU, ReqU, (0, 1)),
    (engine.ReqDaughter, ReqDaughter, (0, 1, 0)),
    (engine.ReqIdle, ReqIdle, ()),
    (engine.ReqIdle, ReqIdle, ()),
    (engine.TPEntry, TPEntry, (("o",), "N<>", "o", 3, {"o": 3})),
    (adversary.PermSpec, PermSpec, ("block_rotate", 4, 1)),
    (adversary.Defect, Defect, ("break_p", None, (0,), 1, 0, None)),
    (cc.TreeQ, TreeQ, ({(): ()},)),
    (cc.ExtractedMap, ExtractedMap, ({}, {(): 0}, ["stall"])),
    (cc.GadgetStructure, GadgetStructure, ("base", "aeven")),
    (config.AdvSpec, AdvSpec, ("faithful", "adv0", adversary.PermSpec(), 2, (), (), None)),
    (config.FuncSpec, FuncSpec, (0, 2, dc.Functional("never"))),
    (config.RunConfig, RunConfig, ("dc", 9, UNIVERSE, (), TREE, 1, PHI, (), 5, 3, None, "{}")),
    (cube.CubeMap, CubeMap, (1, CUBE_IMAGES)),
    (dc.PhiPredicate, PhiPredicate, (PHI.range_n, PHI.rules, PHI.default)),
    (dc.Functional, Functional, ("bit_probe", 0, 0, 1, 2, 3)),
    (dc.PathFamily, PathFamily, ({2: (2, 5)}, {})),
    (dc.ModulusVerdict, ModulusVerdict, (True, False)),
    (trees.Branch, Branch, ((0,), (1, 2))),
    (trees.TestTree, TestTree, (frozenset({(), (0,)}), (BRANCH,))),
    (verify.CheckResult, CheckResult, ("total", False, "u0")),
    (verify.BuiltAutomorphism, BuiltAutomorphism, ((0,), frozenset({1}), ((1, BRANCH),), 0, None)),
]

def _daughter(cls):
    """A maker of cls with an inherited string, named as the class so that
    the case keeps its test id."""
    def make():
        return cls((2, 5))
    make.__name__ = cls.__name__
    return make


# Mutable state: the class and its reference, built from the same arguments.
STATE = [
    (lambda: structure.LabelStore("dc"), lambda: LabelStore("dc")),
    (lambda: engine.Node(("o",)), lambda: Node(("o",))),
    (adversary.FactStream, FactStream),
    (lambda: adversary.Adversary(None, "copy", to_copy={E: 0}, delay=2),
     lambda: Adversary(None, "copy", to_copy={E: 0}, delay=2)),
    (lambda: cc.TreeState((1,)), lambda: TreeState((1,))),
    (lambda: dc.MotherState(4), lambda: MotherState(4)),
    (_daughter(dc.DaughterState), _daughter(DaughterState)),
    (lambda: dc.DiagonalizerState(3, 7, [("o",)]), lambda: DiagonalizerState(3, 7, [("o",)])),
    (lambda: match.MatcherState([((), None)]), lambda: MatcherState([((), None)])),
    (verify.Report, Report),
]


def pairs():
    """(record, reference) per sample, plus plain tuples standing for themselves."""
    out = [(new(*args), ref(*args)) for new, ref, args in VALUES]
    out += [((E, (), None),) * 2, ((0,),) * 2, ((0, 1),) * 2]
    return out


MODULES = (adversary, cc, config, cube, dc, engine, match, structure, trees, verify)


def test_every_reference_is_sampled():
    """Each of the 38 references is sampled, against the package's record
    of the same name."""
    references = {name for name, obj in globals().items()
                  if isinstance(obj, type) and is_dataclass(obj)}
    sampled = {ref.__name__ for _, ref, _ in VALUES} | {make_ref().__class__.__name__
                                                       for _, make_ref in STATE}
    assert sampled == references and len(references) == 38
    for new, ref, _ in VALUES:
        assert new.__name__ == ref.__name__
    for make, make_ref in STATE:
        assert make().__class__.__name__ == make_ref().__class__.__name__
    package = {name for mod in MODULES for name, obj in vars(mod).items()
               if isinstance(obj, type) and obj.__module__ == mod.__name__}
    assert references <= package


@pytest.mark.parametrize("new, ref, args", VALUES, ids=lambda v: getattr(v, "__name__", ""))
def test_same_repr_fields_and_defaults(new, ref, args):
    record, reference = new(*args), ref(*args)
    assert repr(record) == repr(reference)
    names = tuple(f.name for f in fields(ref))
    assert record._fields == names
    assert [getattr(record, name) for name in names] == [getattr(reference, n) for n in names]
    # The defaults, where a reference had a plain one: a NamedTuple default
    # is shared, so a default_factory one is not kept.
    plain = [f for f in fields(ref) if f.default is not MISSING]
    short = args[:len(names) - len(plain)]
    assert repr(new(*short)) == repr(ref(*short))


@pytest.mark.parametrize("make, make_ref", STATE)
def test_mutable_state_starts_with_the_reference_fields(make, make_ref):
    state, reference = make(), make_ref()
    assert {f.name: getattr(state, f.name) for f in fields(reference)} \
        == {f.name: getattr(reference, f.name) for f in fields(reference)}


def _plain_tuple_of(x, y) -> bool:
    """Whether x is a NamedTuple record and y the plain tuple of its fields."""
    return type(y) is tuple and isinstance(x, tuple) and type(x) is not tuple and x == y


def test_equality_and_hash_agree_pairwise():
    """Equality is the reference's on every pair, kinds mixed: ReqMother(0, 1)
    is not ReqU(0, 1), nor ReqN(0) ReqM(0).  The one change is that a
    NamedTuple equals the plain tuple of its fields; no record of the Req
    family does, and `test_no_plain_tuple_shares_a_key_space` checks that
    no element map holds one.  Equal values hash alike, and a hashable
    record hashes as its reference, so set and dict orders are unchanged."""
    sample = pairs()
    for (x, x_ref), (y, y_ref) in product(sample, repeat=2):
        if _plain_tuple_of(x, y) or _plain_tuple_of(y, x):
            assert not isinstance(x, structure.Record) and not isinstance(y, structure.Record)
            continue
        assert (x == y) == (x_ref == y_ref), (x, y)
        assert (x != y) == (x_ref != y_ref), (x, y)
        try:
            hash(x), hash(y)
        except TypeError:  # a dict field, as in the reference
            continue
        if x == y:
            assert hash(x) == hash(y), (x, y)
    for x, x_ref in sample:
        try:
            expected = hash(x_ref)
        except TypeError:
            continue
        assert hash(x) == expected, x


def test_every_record_is_truthy():
    for x, _ in pairs():
        assert x
    assert engine.ReqIdle()


@pytest.mark.parametrize("new, ref, args", VALUES, ids=lambda v: getattr(v, "__name__", ""))
def test_immutable_records_reject_assignment(new, ref, args):
    record = new(*args)
    for name in (*record._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    if isinstance(record, structure.Record) and record._fields:
        with pytest.raises(AttributeError):
            delattr(record, record._fields[0])


@pytest.mark.parametrize("new, ref, args", VALUES, ids=lambda v: getattr(v, "__name__", ""))
def test_records_copy_and_pickle_as_the_references_did(new, ref, args):
    record = new(*args)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        if new is structure.Snapshot and twin.store is not record.store:
            continue  # a copied store is a new plain object, shown by its address
        assert twin == record and repr(twin) == repr(record)


def reference_format_event(ev: tuple) -> str:
    """The trace line as written when records were dataclasses."""
    parts = []
    for p in ev:
        if isinstance(p, tuple):
            parts.append(structure.format_string(p))
        elif p is None:
            parts.append("-")
        elif isinstance(p, Node):
            parts.append(engine.format_addr(p.addr))
        else:
            parts.append(str(p))
    return " ".join(parts)


def test_format_event_writes_records_as_before():
    """A string is the only tuple an event writes as <...>; a record prints
    its repr, as a dataclass did, though a NamedTuple is a tuple too."""
    for new, ref, args in VALUES:
        record, reference = new(*args), ref(*args)
        node, node_ref = engine.Node(("o", "1")), Node(("o", "1"))
        ev = ("usteal", 3, node, record, (0, 4), None, 1)
        ev_ref = ("usteal", 3, node_ref, reference, (0, 4), None, 1)
        assert engine.format_event(ev, {}) == reference_format_event(ev_ref)


def test_validating_records_raise_the_same_errors():
    cases = [
        (trees.Branch, Branch, ((0,), ())),
        (trees.TestTree, TestTree, (frozenset({(0,)}),)),
        (trees.TestTree, TestTree, (frozenset({(), (0, 1)}),)),
        (cube.CubeMap, CubeMap, (1, (E,))),
        (cube.CubeMap, CubeMap, (1, (E, E))),
    ]
    for new, ref, args in cases:
        with pytest.raises(ValueError) as expected:
            ref(*args)
        with pytest.raises(ValueError) as got:
            new(*args)
        assert str(got.value) == str(expected.value)


def test_replace_is_the_namedtuple_replace():
    cfg = config.RunConfig("cc", 5)
    assert cfg._replace(horizon=7) == config.RunConfig("cc", 7)
    assert cfg.horizon == 5


def test_no_plain_tuple_shares_a_key_space():
    """Cube elements equal their plain tuples now, so the maps keyed by
    elements must hold records only."""
    from conftest import dc_config, faithful

    result = engine.run_stages(dc_config(horizon=12, adversaries=[faithful()]))
    keys = [*result.store._direct, *result.adversaries[0].to_copy]
    assert keys and all(type(k) in (structure.CubeElem, structure.UElem) for k in keys)


# ---------------------------------------------------------------------------
# The import gate.

def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter importing every cubetree module adds none of
    `dataclasses`, `inspect`, `argparse` and `gettext` to what `python -c
    pass` loads: the command line imports `argparse` when it builds its
    parser."""
    names = sorted(p.stem for p in (SRC / "cubetree").glob("*.py") if p.stem != "__init__")
    assert "cube" in names and "cli" in names
    added = _modules_after("import " + ", ".join(f"cubetree.{n}" for n in names)) \
        - _modules_after("pass")
    assert {f"cubetree.{n}" for n in names} <= added
    assert not {"dataclasses", "inspect", "argparse", "gettext"} & added
