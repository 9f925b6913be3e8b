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
entries are minimal. An Entry is immutable and computes is_invertible
once, when it is built, so build_taylor hands one shared Entry to every
position with the same sign and the same quotient.

Within a homological degree faces are ordered lexicographically by their
sorted member tuples, which fixes the matrix layout and all signs. A
resolution stores each degree's faces once, in `modules`; a matrix
position (row, column) of diffs[j] indexes modules[j-1] and modules[j].

A generator subset is also a bitmask, bit i for generator i.
`_subsets_by_lcm` groups the 2^q masks by their lcm, the classes that
the dominant, Scarf and arbitrary-order elimination results are about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import sub
from typing import Iterable, Iterator, Sequence

from .monomials import (
    CapExceededError,
    IdealError,
    Monomial,
    MonomialIdeal,
    _monomial,
)

# Hard cap for full Taylor construction: 2^q faces with sparse matrices.
TAYLOR_MAX_GENERATORS = 20

# An exact scalar: an int while it is integral, a Fraction otherwise.
_Scalar = int | Fraction


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


def _face(members: tuple[int, ...], mdeg: Monomial, mask: int) -> Face:
    """A Face built without validation, from strictly increasing members
    and the mask the caller already holds for them."""
    face = object.__new__(Face)
    object.__setattr__(face, "members", members)
    object.__setattr__(face, "mdeg", mdeg)
    object.__setattr__(face, "mask", mask)
    return face


def _face_from_mask(mask: int, mdegs: Sequence[Monomial]) -> Face:
    """The face of the generator subset `mask`, its lcm read from mdegs."""
    return _face(tuple(_bits(mask)), mdegs[mask], mask)


def _mask_of(members: tuple[int, ...]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Entry:
    """One sparse matrix entry: a nonzero exact scalar times a monomial.

    The scalar is stored as an int while it is integral (Fraction(4, 2)
    becomes 2) and as a Fraction otherwise.

    is_invertible (the monomial part is 1) is computed once, at
    construction; like Face.mask it takes no part in ==, hash or repr.
    """

    scalar: _Scalar
    monomial: Monomial
    is_invertible: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        scalar = self.scalar
        # Only exact scalars: bool is an int subclass, and a float or a str
        # would be silently rounded or parsed by Fraction.
        if isinstance(scalar, bool) or not isinstance(scalar, (int, Fraction)):
            raise IdealError(f"entry scalars are ints or Fractions, got {scalar!r}")
        if not scalar:
            raise IdealError("zero entries are represented by absence")
        if scalar.denominator == 1:
            object.__setattr__(self, "scalar", int(scalar))
        object.__setattr__(self, "is_invertible", self.monomial.is_unit)


def _entry(scalar: _Scalar, monomial: Monomial, invertible: bool) -> Entry:
    """An Entry built without validation, from a nonzero scalar, an int
    while it is integral, and the invertibility of monomial, which the
    caller already knows."""
    entry = object.__new__(Entry)
    object.__setattr__(entry, "scalar", scalar)
    object.__setattr__(entry, "monomial", monomial)
    object.__setattr__(entry, "is_invertible", invertible)
    return entry


@dataclass(eq=False)
class DifferentialMatrix:
    """Sparse differential from one degree's faces down to the previous one's.

    The matrix holds no faces. Entries of diffs[j] are keyed by (row
    index, column index): positions in the resolution's modules[j-1] and
    modules[j]. An absent key means zero.
    """

    entries: dict[tuple[int, int], Entry]

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
        members = tuple(sorted(members))
        if len(members) < len(self.modules):
            for face in self.modules[len(members)]:
                if face.members == members:
                    return face
        return None

    def copy(self) -> Resolution:
        diffs: list[DifferentialMatrix | None] = [None]
        for matrix in self.diffs[1:]:
            assert matrix is not None
            diffs.append(DifferentialMatrix(dict(matrix.entries)))
        return Resolution([list(m) for m in self.modules], diffs, list(self.trail))


def strip_trailing_zeros(values: Iterable[int]) -> tuple[int, ...]:
    out = list(values)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mdeg_by_mask(ideal: MonomialIdeal) -> list[Monomial]:
    """lcm of every subset of generators, indexed by bitmask.

    The table has 2^q entries, so the Taylor cap applies to it.
    """
    if len(ideal) > TAYLOR_MAX_GENERATORS:
        raise CapExceededError(
            f"full Taylor construction supports at most {TAYLOR_MAX_GENERATORS}"
            f" generators, got {len(ideal)}"
        )
    gens = ideal.generators
    out = [ideal.vars.unit()] * (1 << len(gens))
    for mask in range(1, 1 << len(gens)):
        low = (mask & -mask).bit_length() - 1
        out[mask] = out[mask & (mask - 1)].lcm(gens[low])
    return out


def _subsets_by_lcm(ideal: MonomialIdeal) -> tuple[list[Monomial], list[list[int]]]:
    """The lcm of every generator subset, indexed by bitmask, and the masks
    grouped by that lcm: each class ascending, in order of smallest mask."""
    mdegs = _mdeg_by_mask(ideal)
    classes: dict[tuple[int, ...], list[int]] = {}
    for mask, mdeg in enumerate(mdegs):
        classes.setdefault(mdeg.exponents, []).append(mask)
    return mdegs, list(classes.values())


def build_taylor(ideal: MonomialIdeal) -> Resolution:
    """The full Taylor complex: all 2^q faces and the signed differentials."""
    q = len(ideal)
    mdegs = _mdeg_by_mask(ideal)

    modules: list[list[Face]] = []
    index_of: list[dict[int, int]] = []  # face mask -> position in its degree
    for degree in range(q + 1):
        faces = []
        for members in combinations(range(q), degree):
            mask = _mask_of(members)
            faces.append(_face(members, mdegs[mask], mask))
        modules.append(faces)
        index_of.append({f.mask: i for i, f in enumerate(faces)})

    # Entries are immutable, so one Entry serves every position with the
    # same sign and quotient. A facet's lcm divides its face's, so the
    # quotient is the plain exponent difference.
    vars = ideal.vars
    shared: dict[tuple[int, tuple[int, ...]], Entry] = {}
    diffs: list[DifferentialMatrix | None] = [None]
    for degree in range(1, q + 1):
        entries: dict[tuple[int, int], Entry] = {}
        facet_index = index_of[degree - 1]
        for ci, face in enumerate(modules[degree]):
            mask, exponents = face.mask, face.mdeg.exponents
            for pos, member in enumerate(face.members):
                facet_mask = mask ^ (1 << member)
                quotient = tuple(map(sub, exponents, mdegs[facet_mask].exponents))
                entry = shared.get((pos & 1, quotient))
                if entry is None:
                    entry = shared[pos & 1, quotient] = _entry(
                        -1 if pos & 1 else 1,
                        _monomial(vars, quotient),
                        not any(quotient),
                    )
                entries[(facet_index[facet_mask], ci)] = entry
        diffs.append(DifferentialMatrix(entries))
    return Resolution(modules, diffs, [])


def repeated_multidegree_classes(res: Resolution) -> dict[Monomial, list[Face]]:
    """Multidegrees carried by two or more current faces, with those faces.

    Keys are ordered by exponent vector, face lists by (degree, members).
    """
    by_exponents: dict[tuple[int, ...], list[Face]] = {}
    for face in res.iter_faces():
        by_exponents.setdefault(face.mdeg.exponents, []).append(face)
    return {
        faces[0].mdeg: sorted(faces, key=Face.sort_key)
        for _, faces in sorted(by_exponents.items())
        if len(faces) >= 2
    }


@dataclass(frozen=True)
class LcmLattice:
    """All subset lcms of the generators; boolean means all 2^q are distinct."""

    monomials: tuple[Monomial, ...]
    is_boolean: bool


def lcm_lattice(ideal: MonomialIdeal) -> LcmLattice:
    """The subset lcms, ascending, closed one generator at a time: the
    lcms over the first k generators are those over the first k - 1 and
    their joins with generator k, so sum_k |L_k| lcms rather than 2^q.
    Its size has the Taylor face cap, checked after each generator."""
    points = {(0,) * len(ideal.vars)}
    for g in ideal.generators:
        points |= {tuple(map(max, p, g.exponents)) for p in points}
        if len(points) > 1 << TAYLOR_MAX_GENERATORS:
            raise CapExceededError(
                f"the lcm lattice has over 2^{TAYLOR_MAX_GENERATORS} points"
            )
    monomials = tuple(_monomial(ideal.vars, e) for e in sorted(points))
    return LcmLattice(monomials, len(monomials) == 1 << len(ideal))
