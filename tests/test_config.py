import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dc_config

from cubetree.config import ConfigError, config_from_dict
from cubetree.engine import Engine

SAMPLES = [json.loads(path.read_text(encoding="utf-8"))
           for path in sorted((Path(__file__).parent.parent / "configs").glob("*.json"))]

# Every kind and variant name, so that mutations reach each table.
NAMES = ("cc", "dc", "faithful", "file", "identity", "block_rotate", "omit_label", "break_p",
         "freeze_after", "until", "periodic", "never", "always", "constant",
         "length_threshold", "bit_probe")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    """The path of every value inside value: dict keys and list indexes."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, inner in items:
        yield from _paths(inner, prefix + (key,))


MUTABLE = [(i, path) for i, sample in enumerate(SAMPLES) for path in _paths(sample) if path]


@st.composite
def mutated_samples(draw):
    """A sample config with one value replaced, or one key or entry deleted."""
    i, path = draw(st.sampled_from(MUTABLE))
    data = json.loads(json.dumps(SAMPLES[i]))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return data


@settings(max_examples=300, deadline=None)
@given(json_values | mutated_samples())
def test_any_json_config_is_built_or_rejected_with_a_config_error(data):
    """Building an engine from any JSON value either succeeds or raises a
    ConfigError; no other exception escapes."""
    try:
        Engine(config_from_dict(data))
    except ConfigError:
        pass


@pytest.mark.parametrize("first, second", [("3", "03"), ("03", "3"), ("0", "-0"), ("-1", "-01")])
def test_phi_rule_keys_naming_one_position_are_rejected(first, second):
    """Two keys that read as one position name both keys, whichever comes
    first; the later one used to win silently."""
    rules = {first: {"kind": "never"}, second: {"kind": "always"}}
    with pytest.raises(ConfigError) as exc:
        dc_config(phi={"range": 6, "rules": rules})
    assert str(exc.value) == \
        f"phi.rules keys {first!r} and {second!r} name one position, {int(first)}"
