from hypothesis import given, strategies as st

from cubetree.match import children_index


def scan_children(pool, key):
    """The pool scan the index replaces: keys one symbol longer than key,
    extending it, with the same sort."""
    sigma, sort = key
    return sorted(
        k for k in pool
        if len(k[0]) == len(sigma) + 1 and k[0][: len(sigma)] == sigma and k[1] == sort
    )


strings = st.lists(st.integers(0, 3), max_size=4).map(tuple)
cc_pools = st.sets(st.tuples(strings, st.none()), max_size=40)
dc_pools = st.sets(st.tuples(strings, st.integers(0, 1)), max_size=40)


@given(st.one_of(cc_pools, dc_pools), st.lists(st.tuples(strings, st.sampled_from([None, 0, 1]))))
def test_children_index_matches_scan(pool, probes):
    index = children_index(pool)
    for key in list(pool) + probes:
        assert index.get(key, []) == scan_children(pool, key)
