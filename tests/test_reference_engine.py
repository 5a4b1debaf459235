"""The run against its plain form: `Engine` and `ReferenceEngine` write the
same trace, snapshot and copy fact lines, on fixed runs and on small
generated configs (MacIver et al., "Hypothesis: A new approach to
property-based testing", JOSS 2019)."""

import importlib
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cc_config, dc_config, faithful
from reference_engine import (
    REPLACED,
    ReferenceEngine,
    ReferenceGenerator,
    ScanStore,
    WalkedPath,
    fixed_configs,
)

from cubetree.adversary import FaithfulGenerator
from cubetree.engine import Engine, PathIndex
from cubetree.structure import LabelStore
from cubetree.verify import check_trace_invariants


def artifacts(engine):
    """A finished run's trace lines, snapshot lines, each copy's fact lines
    and element numbering, and each node's requirement, label and outcomes:
    true paths and the checks read the outcomes off the nodes, not off the
    trace."""
    return {
        "trace.log": list(engine.trace.lines()),
        "nodes": [(addr, node.req, node.label, node.outcomes)
                  for addr, node in sorted(engine.nodes.items())],
        "snapshot.log": engine.snapshot().dump_lines(),
        **{f"copy {i} facts": list(adv.stream.to_lines())
           for i, adv in enumerate(engine.adversaries)},
        **{f"copy {i} numbering": list(adv.to_copy.items())
           for i, adv in enumerate(engine.adversaries)},
    }


def assert_same_run(config):
    """Run both engines on config; return the fast engine's run."""
    ours = Engine(config).run()
    plain = ReferenceEngine(config).run()
    got, want = artifacts(ours), artifacts(plain)
    assert got.keys() == want.keys()
    for name, lines in want.items():
        first = next((i for i, (a, b) in enumerate(zip(got[name], lines)) if a != b),
                     min(len(got[name]), len(lines)))
        assert got[name] == lines, (name, first, got[name][first:first + 1],
                                    lines[first:first + 1])
    return ours


@pytest.mark.parametrize("name", list(fixed_configs()))
def test_fixed_runs_match_the_reference(name):
    result = assert_same_run(fixed_configs()[name])
    report = check_trace_invariants(result)
    assert report.ok, report.failures()


# -- generated configs ----------------------------------------------------------

sigmas = st.lists(st.integers(0, 2), max_size=2)
defects = st.one_of(
    st.fixed_dictionaries({"kind": st.just("omit_label"), "n": st.integers(0, 3),
                           "sigma": sigmas}),
    st.fixed_dictionaries({"kind": st.just("break_p"), "sigma": sigmas,
                           "j": st.integers(0, 2)}),
    st.fixed_dictionaries({"kind": st.just("freeze_after"), "step": st.integers(0, 30)}),
)
phi_rules = st.one_of(
    st.integers(0, 20).map(lambda s0: {"kind": "until", "s0": s0}),
    st.integers(1, 6).map(lambda period: {"kind": "periodic", "period": period}),
    st.just({"kind": "never"}),
    st.just({"kind": "always"}),
)
functionals = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": st.integers(0, 1)}),
    st.fixed_dictionaries({"kind": st.just("length_threshold"), "min_len": st.integers(1, 3),
                           "value": st.integers(0, 1)}),
    st.fixed_dictionaries({"kind": st.just("bit_probe"), "coord": st.integers(0, 2),
                           "pos": st.integers(0, 2), "modulus": st.integers(1, 3)}),
    st.just({"kind": "never"}),
)


@st.composite
def small_configs(draw, variant):
    """A small run of the variant against zero to three faithful copies, some
    block-rotated, each with up to two defects of any kind; a dc run has one
    to three mothers, a predicate whose default and per-position rules are of
    any kind, and up to two functionals of any kind."""
    copies = []
    for _ in range(draw(st.integers(0, 3))):
        spec = faithful(delay=draw(st.integers(0, 3)),
                        defects=draw(st.lists(defects, max_size=2)))
        if draw(st.booleans()):
            spec["permutation"] = {"kind": "block_rotate", "block": draw(st.integers(1, 8)),
                                   "shift": draw(st.integers(0, 7))}
        copies.append(spec)
    common = {
        "horizon": draw(st.integers(10, 40)),
        "universe": {"rate": draw(st.integers(1, 20)), "cap": draw(st.integers(2, 3)),
                     "f_rate": draw(st.integers(1, 30)), "f_cap": draw(st.integers(1, 2))},
        "adversaries": copies,
    }
    if variant == "cc":
        return cc_config(**common)
    mothers = draw(st.integers(1, 3))
    phi_range = draw(st.integers(2, 10))
    positions = draw(st.sets(st.integers(0, phi_range - 1), max_size=2))
    phi = {"range": phi_range, "default": draw(phi_rules),
           "rules": {str(n): draw(phi_rules) for n in sorted(positions)}}
    funcs = []
    for _ in range(draw(st.integers(0, 2))):
        mother = draw(st.integers(0, mothers - 1))
        funcs.append({"mother": mother, "round": mother + draw(st.integers(1, 3)),
                      **draw(functionals)})
    return dc_config(mothers=mothers, phi=phi, functionals=funcs, **common)


@pytest.mark.parametrize("variant", ["cc", "dc"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_generated_runs_match_the_reference(variant, data):
    """Every invariant holds on the run, the live |B| against the full
    replay of B included."""
    result = assert_same_run(data.draw(small_configs(variant)))
    report = check_trace_invariants(result)
    assert report.ok, report.failures()
    assert "pass responsibility-size" in report.lines()


# -- drift guard ----------------------------------------------------------------

def test_every_name_the_reference_replaces_resolves():
    """Each method ReferenceEngine overrides is an Engine method, each hook
    it stands in for exists under its name, and each stand-in object answers
    only to names its original has.  Renaming a fast path then fails here,
    not silently: the reference would otherwise run the fast path and the
    differential would compare it with itself."""
    overridden = [name for name, value in vars(ReferenceEngine).items()
                  if callable(value) and not name.startswith("__")]
    assert overridden
    missing = [f"Engine.{name}" for name in overridden
               if not callable(getattr(Engine, name, None))]
    for module, path in REPLACED:
        try:
            reduce(getattr, path.split("."), importlib.import_module(f"cubetree.{module}"))
        except AttributeError:
            missing.append(f"cubetree.{module}.{path}")
    originals = [(ScanStore, LabelStore()), (WalkedPath, PathIndex()),
                 (ReferenceGenerator, FaithfulGenerator)]
    for stand_in, original in originals:
        missing += [f"{stand_in.__name__}.{name}" for name in vars(stand_in)
                    if not name.startswith("_") and not hasattr(original, name)]
    assert missing == []
