"""Edge-colored infinite-dimensional cube: vertex operations and automorphism search.

Vertices are finite sets of naturals.  Vertices F and G are joined by an edge
of color i exactly when F and G differ in the single element i.  Translation
(symmetric difference with a fixed set H) preserves every edge color, and on
a full finite subcube the translations are the only color-preserving
bijections; `enumerate_cube_automorphisms` confirms this by search.
"""

from __future__ import annotations

from itertools import permutations

from .structure import Record

FinSet = frozenset[int]

EMPTY: FinSet = frozenset()

# Exhaustive search over 2^d vertices; 16! is out of reach, so d=4 switches
# to determined-extension search and d>4 is refused.
MAX_ENUM_DIMENSION = 4
BRUTE_FORCE_DIMENSION = 3


class DimensionTooLarge(ValueError):
    """Requested cube dimension exceeds the search guard."""


def symm_diff(f: FinSet, g: FinSet) -> FinSet:
    return frozenset(f) ^ frozenset(g)


def edge_color(f: FinSet, g: FinSet) -> int | None:
    """Color of the edge between f and g, or None if they are not adjacent."""
    d = frozenset(f) ^ frozenset(g)
    if len(d) == 1:
        return next(iter(d))
    return None


def translate(f: FinSet, h: FinSet) -> FinSet:
    return frozenset(f) ^ frozenset(h)


def parity(f: FinSet) -> str:
    return "even" if len(f) % 2 == 0 else "odd"


def cube_vertices(dimension: int) -> list[FinSet]:
    """All subsets of {0, ..., dimension-1} in binary-counter order."""
    return [_mask_to_set(mask, dimension) for mask in range(1 << dimension)]


class CubeMap(Record):
    """Bijection on the vertices of the full cube of the given dimension.

    `images` lists the image of each vertex in `cube_vertices(dimension)`
    order, so maps compare and hash structurally.
    """

    __slots__ = _fields = ("dimension", "images")

    def __init__(self, dimension: int, images: tuple[FinSet, ...]) -> None:
        n = 1 << dimension
        if len(images) != n or len(set(images)) != n:
            raise ValueError("images must be a bijection on the cube vertices")
        super().__init__(dimension, images)

    def apply(self, f: FinSet) -> FinSet:
        mask = 0
        for i in f:
            if i >= self.dimension:
                raise ValueError(f"vertex {set(f)} outside dimension {self.dimension}")
            mask |= 1 << i
        return self.images[mask]


def translation_map(dimension: int, h: FinSet) -> CubeMap:
    verts = cube_vertices(dimension)
    return CubeMap(dimension, tuple(translate(v, h) for v in verts))


def all_translations(dimension: int) -> set[CubeMap]:
    return {translation_map(dimension, h) for h in cube_vertices(dimension)}


def _preserves_colors(dimension: int, images: tuple[int, ...]) -> bool:
    # Vertices encoded as bitmasks: adjacency of color i <=> xor == 1 << i.
    n = 1 << dimension
    for v in range(n):
        for i in range(dimension):
            w = v ^ (1 << i)
            if w < v:
                continue
            if images[v] ^ images[w] != 1 << i:
                return False
    return True


def _mask_to_set(mask: int, dimension: int) -> FinSet:
    return frozenset(i for i in range(dimension) if mask >> i & 1)


def _masks_to_map(dimension: int, images: tuple[int, ...]) -> CubeMap:
    return CubeMap(dimension, tuple(_mask_to_set(m, dimension) for m in images))


def enumerate_cube_automorphisms(dimension: int) -> set[CubeMap]:
    """All bijections of the full d-cube preserving every edge color exactly.

    d <= 3 enumerates all bijections outright.  d = 4 fixes the image of the
    empty vertex and propagates along edges (each step is forced by the color
    constraint), then verifies the candidate; raw enumeration of 16!
    bijections is infeasible.
    """
    if dimension > MAX_ENUM_DIMENSION:
        raise DimensionTooLarge(f"dimension {dimension} > {MAX_ENUM_DIMENSION}")
    n = 1 << dimension
    found: set[CubeMap] = set()
    if dimension <= BRUTE_FORCE_DIMENSION:
        for images in permutations(range(n)):
            if _preserves_colors(dimension, images):
                found.add(_masks_to_map(dimension, images))
        return found
    for root_image in range(n):
        images = [-1] * n
        images[0] = root_image
        # Extend in mask order; v with low bit i is forced by v ^ (1 << i).
        for v in range(1, n):
            i = (v & -v).bit_length() - 1
            w = v ^ (1 << i)
            images[v] = images[w] ^ (1 << i)
        if len(set(images)) == n and _preserves_colors(dimension, tuple(images)):
            found.add(_masks_to_map(dimension, tuple(images)))
    return found
