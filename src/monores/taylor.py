"""Taylor complexes of monomial ideals as explicit chain complexes.

The Taylor complex of an ideal with generators g_0, ..., g_{q-1} has one
basis face per subset of {0, ..., q-1}. A face caches the lcm of its
members (its multidegree) and sits in homological degree |members|; the
empty face is the degree-0 basis of the free module covering the ring.
The differential sends a face with members r_1 < ... < r_j to the
alternating sum of its facets, each weighted by the exact quotient of
the two multidegrees:

    d[r_1, ..., r_j] = sum_i (-1)^(i+1) * (mdeg(face) / mdeg(facet_i)) * facet_i

where facet_i drops r_i. Every matrix entry is therefore an exact
rational scalar times a monomial, and the monomial of a nonzero entry
always equals mdeg(column face) / mdeg(row face). An entry whose
monomial part is 1 is called invertible; resolutions with no invertible
entries are minimal.

Within a homological degree faces are ordered lexicographically by their
sorted member tuples, which fixes the matrix layout and all signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .monomials import (
    CapExceededError,
    IdealError,
    Monomial,
    MonomialIdeal,
)

# Hard cap for full Taylor construction: 2^q faces with sparse matrices.
TAYLOR_MAX_GENERATORS = 20


@dataclass(frozen=True)
class Face:
    """A subset of generator indices with its cached multidegree."""

    members: tuple[int, ...]
    mdeg: Monomial
    mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        mask = 0
        prev = -1
        for i in self.members:
            if i <= prev:
                raise IdealError("face members must be strictly increasing")
            mask |= 1 << i
            prev = i
        object.__setattr__(self, "mask", mask)

    @property
    def hdeg(self) -> int:
        return len(self.members)

    def is_facet_of(self, other: Face) -> bool:
        return len(other.members) == len(self.members) + 1 and (
            self.mask & other.mask
        ) == self.mask

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.members), self.members)

    def __hash__(self) -> int:
        # Equal faces have equal members and so equal masks; the generated
        # hash would recurse through every member and the multidegree.
        return self.mask


def _face(members: tuple[int, ...], mdeg: Monomial, mask: int) -> Face:
    """A Face built without validation, from strictly increasing members
    and the mask the caller already holds for them."""
    face = object.__new__(Face)
    object.__setattr__(face, "members", members)
    object.__setattr__(face, "mdeg", mdeg)
    object.__setattr__(face, "mask", mask)
    return face


@dataclass(frozen=True)
class Entry:
    """One sparse matrix entry: a nonzero exact scalar times a monomial."""

    scalar: Fraction
    monomial: Monomial

    def __post_init__(self) -> None:
        # Derived scalars are already Fractions; only wrap what is not.
        if type(self.scalar) is not Fraction:
            object.__setattr__(self, "scalar", Fraction(self.scalar))
        if not self.scalar:
            raise IdealError("zero entries are represented by absence")

    @property
    def is_invertible(self) -> bool:
        return self.monomial.is_unit


@dataclass(eq=False)
class DifferentialMatrix:
    """Sparse differential from the column faces down to the row faces.

    Entries are keyed by (row index, column index) into the two face
    lists; an absent key means zero.
    """

    rows: list[Face]
    cols: list[Face]
    entries: dict[tuple[int, int], Entry]

    def entry(self, row_face: Face, col_face: Face) -> Entry | None:
        try:
            key = (self.rows.index(row_face), self.cols.index(col_face))
        except ValueError:
            return None
        return self.entries.get(key)

    def nnz(self) -> int:
        return len(self.entries)


@dataclass(eq=False)
class Resolution:
    """Free-module bases per homological degree plus sparse differentials.

    diffs[j] maps degree j to degree j-1 for j >= 1; diffs[0] is None.
    The trail logs every cancellation applied since construction.
    """

    modules: list[list[Face]]
    diffs: list[DifferentialMatrix | None]
    trail: list

    @property
    def top(self) -> int:
        return len(self.modules) - 1

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.modules)

    def iter_faces(self) -> Iterator[Face]:
        for module in self.modules:
            yield from module

    def find_face(self, members: Iterable[int]) -> Face | None:
        return face_with_members(self.modules, members)

    def copy(self) -> Resolution:
        diffs: list[DifferentialMatrix | None] = [None]
        for matrix in self.diffs[1:]:
            assert matrix is not None
            diffs.append(
                DifferentialMatrix(
                    list(matrix.rows), list(matrix.cols), dict(matrix.entries)
                )
            )
        return Resolution([list(m) for m in self.modules], diffs, list(self.trail))


def face_with_members(
    modules: Sequence[Iterable[Face]], members: Iterable[int]
) -> Face | None:
    """The face with the given members in per-degree face collections, or None."""
    members = tuple(sorted(members))
    degree = len(members)
    if degree >= len(modules):
        return None
    for face in modules[degree]:
        if face.members == members:
            return face
    return None


def strip_trailing_zeros(values: Iterable[int]) -> tuple[int, ...]:
    out = list(values)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _check_cap(ideal: MonomialIdeal) -> None:
    if len(ideal) > TAYLOR_MAX_GENERATORS:
        raise CapExceededError(
            f"full Taylor construction supports at most {TAYLOR_MAX_GENERATORS}"
            f" generators, got {len(ideal)}"
        )


def _mdeg_by_mask(ideal: MonomialIdeal) -> list[Monomial]:
    """lcm of every subset of generators, indexed by bitmask."""
    gens = ideal.generators
    out = [ideal.vars.unit()] * (1 << len(gens))
    for mask in range(1, 1 << len(gens)):
        low = (mask & -mask).bit_length() - 1
        out[mask] = out[mask & (mask - 1)].lcm(gens[low])
    return out


def build_taylor(ideal: MonomialIdeal) -> Resolution:
    """The full Taylor complex: all 2^q faces and the signed differentials."""
    _check_cap(ideal)
    q = len(ideal)
    mdegs = _mdeg_by_mask(ideal)

    plus, minus = Fraction(1), Fraction(-1)

    modules: list[list[Face]] = []
    index_of: list[dict[int, int]] = []  # face mask -> position in its degree
    for degree in range(q + 1):
        faces = []
        for members in combinations(range(q), degree):
            mask = _mask_of(members)
            faces.append(_face(members, mdegs[mask], mask))
        modules.append(faces)
        index_of.append({f.mask: i for i, f in enumerate(faces)})

    diffs: list[DifferentialMatrix | None] = [None]
    for degree in range(1, q + 1):
        entries: dict[tuple[int, int], Entry] = {}
        facet_index = index_of[degree - 1]
        for ci, face in enumerate(modules[degree]):
            mask, mdeg = face.mask, face.mdeg
            for pos, member in enumerate(face.members):
                facet_mask = mask ^ (1 << member)
                entries[(facet_index[facet_mask], ci)] = Entry(
                    minus if pos % 2 else plus, mdeg.exact_div(mdegs[facet_mask])
                )
        diffs.append(
            DifferentialMatrix(list(modules[degree - 1]), list(modules[degree]), entries)
        )
    return Resolution(modules, diffs, [])


def _mask_of(members: tuple[int, ...]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def repeated_multidegree_classes(res: Resolution) -> dict[Monomial, list[Face]]:
    """Multidegrees carried by two or more current faces, with those faces.

    Keys are ordered by exponent vector, face lists by (degree, members).
    """
    by_mdeg: dict[Monomial, list[Face]] = {}
    for face in res.iter_faces():
        by_mdeg.setdefault(face.mdeg, []).append(face)
    out: dict[Monomial, list[Face]] = {}
    for mdeg in sorted(by_mdeg, key=lambda m: m.exponents):
        faces = by_mdeg[mdeg]
        if len(faces) >= 2:
            out[mdeg] = sorted(faces, key=Face.sort_key)
    return out


@dataclass(frozen=True)
class LcmLattice:
    """All subset lcms of the generators; boolean means all 2^q are distinct."""

    monomials: tuple[Monomial, ...]
    is_boolean: bool


def lcm_lattice(ideal: MonomialIdeal) -> LcmLattice:
    _check_cap(ideal)
    mdegs = _mdeg_by_mask(ideal)
    distinct = sorted(set(mdegs), key=lambda m: m.exponents)
    return LcmLattice(tuple(distinct), len(distinct) == len(mdegs))
