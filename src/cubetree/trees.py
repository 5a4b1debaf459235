"""Decidable test trees with optional designated infinite branches.

Input trees drive the single-sorted construction and the orbit/path claim
checks.  A tree is a finite prefix-closed set of strings; designated
branches are eventually periodic, so membership and prefix extraction stay
decidable and serializable.
"""

from __future__ import annotations

from .structure import NatString, Record


class Branch(Record):
    """Eventually periodic infinite branch: `prefix` then `period` repeated."""

    __slots__ = _fields = ("prefix", "period")

    def __init__(self, prefix: NatString, period: NatString) -> None:
        if not period:
            raise ValueError("branch period must be nonempty")
        super().__init__(prefix, period)

    def value(self, n: int) -> int:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def initial_segment(self, length: int) -> NatString:
        return tuple(self.value(n) for n in range(length))

    def has_prefix(self, sigma: NatString) -> bool:
        return self.initial_segment(len(sigma)) == tuple(sigma)


class TestTree(Record):
    __slots__ = _fields = ("nodes", "branches")

    def __init__(self, nodes: frozenset[NatString], branches: tuple[Branch, ...] = ()) -> None:
        if () not in nodes:
            raise ValueError("tree must contain the empty string")
        for sigma in nodes:
            if sigma and sigma[:-1] not in nodes:
                raise ValueError(f"tree is not prefix-closed at {sigma}")
        super().__init__(nodes, branches)

    def __contains__(self, sigma) -> bool:
        sigma = tuple(sigma)
        return sigma in self.nodes or any(b.has_prefix(sigma) for b in self.branches)

    def depth(self) -> int:
        return max(len(s) for s in self.nodes)

    def sorted_nodes(self) -> list[NatString]:
        return sorted(self.nodes, key=lambda s: (len(s), s))

    def branch_through(self, sigma) -> Branch | None:
        """A designated branch extending sigma, leftmost prefix first."""
        sigma = tuple(sigma)
        hits = [b for b in self.branches if b.has_prefix(sigma)]
        if not hits:
            return None
        return min(hits, key=lambda b: b.initial_segment(len(sigma) + 8))

    def symbols(self) -> list[int]:
        syms: set[int] = set()
        for s in self.nodes:
            syms.update(s)
        for b in self.branches:
            syms.update(b.prefix)
            syms.update(b.period)
        return sorted(syms)


def tree_from_lists(nodes, branches=()) -> TestTree:
    node_set = {tuple(n) for n in nodes}
    node_set.add(())
    # Close under prefixes so hand-written configs can list leaves only.
    closed = set()
    for sigma in node_set:
        for k in range(len(sigma) + 1):
            closed.add(sigma[:k])
    branch_objs = tuple(Branch(tuple(p), tuple(q)) for p, q in branches)
    for b in branch_objs:
        for k in range(len(b.prefix) + 1):
            closed.add(b.prefix[:k])
    return TestTree(frozenset(closed), branch_objs)
