"""Pivot-based change of basis and consecutive cancellation of resolutions.

The basic move is Gaussian: given an invertible entry (the pivot) at
(row tau, column sigma) of the degree-j differential, a change of basis
turns the pivot column into the unit column at tau and the pivot row
into the unit row at sigma, updating every other entry (c, d) by the
usual fill-in rule

    b_cd = a_cd - a_rd * a_cs / a_rs.

Because the pivot's monomial part is 1, the two faces have equal
multidegree, the fill-in terms all carry the monomial
mdeg(d) / mdeg(c), and the multidegrees of entries never change. The
change of basis also zeroes the sigma row of the degree-(j+1) matrix and
the tau column of the degree-(j-1) matrix, so the pair (sigma, tau)
spans a split rank-one subcomplex that can be deleted outright: that
deletion is a cancellation, and it shrinks two consecutive free modules
by one each while the quotient stays a resolution of the same module.

The arithmetic is exact throughout. A working copy holds each scalar
as a Python int while it is integral and as a Fraction otherwise. Taylor
entries start at ±1, and in practice their pivots stay ±1, so their
values stay ints and a fill-in step is int arithmetic alone. A
division by ±1 is a sign change; any other keeps a numerator and a
denominator and builds a Fraction only when the result is not integral,
so no float ever appears. Entry.scalar and the trail's pivot scalars are
always Fractions: the Entries are built once, when the working copy is
frozen into a Resolution.

Strategies drive which pivots get cancelled. The face/facet eliminator
only cancels pivots whose row face is a facet of its column face (that
is the regime in which dominance theory guarantees order-independence);
the generic minimizer cancels any invertible entry and always reaches a
minimal resolution, because fill-in can create invertible entries
between faces that are not facet-related and thereby rescue states the
restricted eliminator cannot leave.

Invertibility needs no entry to be read. Every entry at (row, column)
carries the monomial mdeg(column) / mdeg(row), fill-in included, so a
position is invertible exactly when its two faces have equal
multidegree, for as long as it holds an entry. The working copy names
each face's multidegree by a small int and compares those.

minimize_generic makes one sweep over the columns in (degree, column)
order and cancels, in each column, the invertible entry with the least
row, if there is one. No cancellation makes an entry invertible in a
column the sweep has passed, so this is the order of always taking the
least (degree, column, row) pivot, and it keeps no index. The face/facet
strategies do keep one: a sorted list of the invertible face/facet
positions, keyed (-degree, -column, -row) so that the least pivot is
last, built by one scan when first read and kept current by every entry
write and delete after that. Deterministic takes the last key, an O(1)
delete, and SeededRandom a uniformly drawn one, so that order fixes
their trails.

All public functions take and return faces, leave their input resolution
untouched and return a fresh one; the loop drivers mutate a private
working copy internally. That copy keys every face by its position in
the input's module, as Resolution.entries does, and finds a face named
by members by its mask. Every module is sorted by members (build_taylor
lays it out so, and cancellation only deletes faces), so comparing
positions as ints gives the (degree, column members, row members) order
named above.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import gcd
from operator import sub

from .dominance import _dominance_split
from .monomials import IdealError, MonomialIdeal, _monomial
from .taylor import (
    DifferentialMatrix,
    Entry,
    Face,
    Resolution,
    _bits,
    _entry,
    _face_from_mask,
    _mask_of,
    _mdeg_by_mask,
    _subsets_by_lcm,
    repeated_multidegree_classes,
)


@dataclass(frozen=True)
class CancellationEvent:
    """One cancellation: the removed face/row pair and the pivot used."""

    sigma: Face
    tau: Face
    pivot_scalar: Fraction
    strategy_tag: str


@dataclass
class EliminationOutcome:
    """Result of a face/facet elimination run.

    status is "completed" when no face/facet pair of equal multidegree is
    left to cancel and no multidegree is shared by several surviving
    faces, or when the strategy simply ran out of instructions while
    cancellable pairs remain. status is "stuck" when repeated
    multidegrees survive but no invertible face/facet entry exists
    anywhere; the witness lists the faces of one such multidegree.
    """

    resolution: Resolution
    status: str  # "completed" | "stuck"
    stuck_witness: list[Face] | None = None


@dataclass(frozen=True)
class Deterministic:
    """Always cancel the first candidate in (degree, column, row) order."""


@dataclass(frozen=True)
class SeededRandom:
    """Cancel a uniformly random current candidate, reproducibly."""

    seed: int


@dataclass(frozen=True)
class Scripted:
    """Cancel exactly the given (sigma members, tau members) pairs, in order.

    pairs is a list or tuple of two-element lists or tuples of member
    lists; members must be distinct nonnegative ints (not bools), and
    anything else raises IdealError.
    """

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __init__(self, pairs) -> None:
        if not isinstance(pairs, (list, tuple)):
            raise IdealError("a script is a list of [sigma, tau] member-list pairs")
        normalized = []
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise IdealError(f"script entry {pair!r} is not a [sigma, tau] pair")
            normalized.append(tuple(_script_members(face) for face in pair))
        object.__setattr__(self, "pairs", tuple(normalized))


def _script_members(face) -> tuple[int, ...]:
    if not isinstance(face, (list, tuple)):
        raise IdealError(f"script face {face!r} is not a list of generator indices")
    for member in face:
        # bool is an int subclass, and True == 1 would match generator 1.
        if isinstance(member, bool) or not isinstance(member, int) or member < 0:
            raise IdealError(
                f"script face member {member!r} is not a nonnegative integer"
            )
    if len(set(face)) != len(face):
        raise IdealError(f"script face {list(face)} repeats a member")
    return tuple(sorted(face))


Strategy = Deterministic | SeededRandom | Scripted


_Pivot = tuple[int, int, int]
_Scalar = int | Fraction


def _value(x: Fraction) -> _Scalar:
    """x as an int when it is integral, else x itself."""
    return x.numerator if x.denominator == 1 else x


def _fraction(x: _Scalar) -> Fraction:
    """x as the Fraction an Entry stores."""
    return x if type(x) is Fraction else Fraction(x)


def _minus(current: _Scalar | None, n: int, m: int) -> _Scalar:
    """current - n / m, with current None for zero and m > 0, as an int
    when it is integral and a Fraction otherwise."""
    cn, cd = (0, 1) if current is None else (current.numerator, current.denominator)
    num, den = cn * m - n * cd, cd * m
    g = gcd(num, den)
    return num // g if g == den else Fraction(num // g, den // g)


def _divide(a: _Scalar, b: _Scalar) -> _Scalar:
    """The exact quotient a / b: a or -a when b is ±1, else a Fraction, so
    that no division ever yields a float."""
    if b == 1:
        return a
    if b == -1:
        return -a
    return Fraction(a, b)


class _Work:
    """Mutable position-keyed view of a resolution, for efficient cancellation.

    Every face is keyed by its position in the source resolution's
    module, as the source's entries are. modules holds each degree's
    surviving faces as an insertion-ordered position -> Face dict, so a
    cancelled face is deleted in O(1) and the rest keep their position
    order, which is member order because the source's modules are sorted
    by members. classes[degree][position] is a small int that names the
    face's multidegree, so a position is invertible exactly when its row
    and column have the same class; masks[degree][position] is the
    face's generator bitmask, read only by the face/facet test. by_col
    holds each differential as column -> {row: scalar}, and by_row holds
    each row's set of columns. Faces are read from modules only for
    trail events and, in freeze, for the multidegrees that give a
    rewritten entry its monomial. source is the resolution the copy was
    made from, whose Entry at the same (row, column) key freeze reuses
    where the scalar is unchanged.

    facets is None until facet_pivots() first builds it. From then on it
    is the sorted list of invertible face/facet positions, as (-degree,
    -column, -row), and every write and delete keeps it current.
    """

    __slots__ = (
        "source", "modules", "masks", "classes", "by_col", "by_row", "trail", "facets"
    )

    def __init__(self, res: Resolution) -> None:
        self.source = res
        self.modules: list[dict[int, Face]] = [dict(enumerate(m)) for m in res.modules]
        self.masks: list[list[int]] = [[f.mask for f in m] for m in res.modules]
        ids: dict[tuple[int, ...], int] = {}
        self.classes: list[list[int]] = [
            [ids.setdefault(f.mdeg.exponents, len(ids)) for f in m] for m in res.modules
        ]
        self.by_col: list[dict[int, dict[int, _Scalar]]] = [{}]
        self.by_row: list[dict[int, set[int]]] = [{}]
        self.trail: list[CancellationEvent] = list(res.trail)
        self.facets: list[_Pivot] | None = None
        # A Taylor complex shares a few scalar objects among all its
        # entries, so each distinct object is read once.
        values: dict[int, _Scalar] = {}
        for degree in range(1, res.top + 1):
            matrix = res.diffs[degree]
            assert matrix is not None
            by_col: defaultdict[int, dict[int, _Scalar]] = defaultdict(dict)
            by_row: defaultdict[int, set[int]] = defaultdict(set)
            for (row, col), entry in matrix.entries.items():
                scalar = entry.scalar
                value = values.get(id(scalar))
                if value is None:
                    value = values[id(scalar)] = _value(scalar)
                by_col[col][row] = value
                by_row[row].add(col)
            self.by_col.append(dict(by_col))
            self.by_row.append(dict(by_row))

    @property
    def top(self) -> int:
        return len(self.modules) - 1

    def freeze(self) -> Resolution:
        """The current state as a Resolution. A position that holds the
        scalar it held in the source keeps the source's Entry; any other
        Entry is built here, once, with the monomial mdeg(col) / mdeg(row)."""
        renumbered = [{pos: i for i, pos in enumerate(m)} for m in self.modules]
        diffs: list[DifferentialMatrix | None] = [None]
        for degree in range(1, self.top + 1):
            rows, cols = self.modules[degree - 1], self.modules[degree]
            row_pos, col_pos = renumbered[degree - 1], renumbered[degree]
            source_entries = self.source.diffs[degree].entries
            entries: dict[tuple[int, int], Entry] = {}
            for col, col_entries in self.by_col[degree].items():
                ci, mdeg = col_pos[col], cols[col].mdeg
                for row, scalar in col_entries.items():
                    entry = source_entries.get((row, col))
                    if entry is None or entry.scalar != scalar:
                        quotient = tuple(
                            map(sub, mdeg.exponents, rows[row].mdeg.exponents)
                        )
                        monomial = _monomial(mdeg.vars, quotient)
                        entry = _entry(_fraction(scalar), monomial, not any(quotient))
                    entries[row_pos[row], ci] = entry
            diffs.append(DifferentialMatrix(entries))
        modules = [list(m.values()) for m in self.modules]
        return Resolution(modules, diffs, list(self.trail))

    def positions_by_mask(self) -> list[dict[int, int]]:
        """Each degree's surviving faces as mask -> position."""
        return [{masks[i]: i for i in m} for masks, m in zip(self.masks, self.modules)]

    def get(self, degree: int, row: int | None, col: int | None) -> _Scalar | None:
        col_entries = self.by_col[degree].get(col)
        return None if col_entries is None else col_entries.get(row)

    def invertible(self, degree: int, row: int | None, col: int | None) -> bool:
        """Whether (row, col) holds an entry and its faces share a multidegree."""
        return (
            self.get(degree, row, col) is not None
            and self.classes[degree - 1][row] == self.classes[degree][col]
        )

    def _facet_key(self, degree: int, row: int, col: int) -> _Pivot | None:
        """The index key of an invertible face/facet position, else None."""
        if self.classes[degree - 1][row] != self.classes[degree][col]:
            return None
        row_mask, col_mask = self.masks[degree - 1][row], self.masks[degree][col]
        if row_mask & col_mask != row_mask or (col_mask ^ row_mask).bit_count() != 1:
            return None
        return (-degree, -col, -row)

    def _index(self, degree: int, row: int, col: int) -> None:
        """Add a new position to the face/facet index, if it belongs there."""
        if (key := self._facet_key(degree, row, col)) is not None:
            insort(self.facets, key)

    def _unindex(self, degree: int, row: int, col: int) -> None:
        """Drop a position from the face/facet index, if it is there."""
        if (key := self._facet_key(degree, row, col)) is not None:
            facets = self.facets
            del facets[bisect_left(facets, key)]

    def facet_pivots(self) -> list[_Pivot]:
        """The face/facet index, built by one scan on the first call."""
        if self.facets is None:
            self.facets = sorted(
                key
                for degree in range(1, self.top + 1)
                for col, col_entries in self.by_col[degree].items()
                for row in col_entries
                if (key := self._facet_key(degree, row, col)) is not None
            )
        return self.facets

    def set(self, degree: int, row: int, col: int, scalar: _Scalar) -> None:
        col_entries = self.by_col[degree].setdefault(col, {})
        if row not in col_entries:
            self.by_row[degree].setdefault(row, set()).add(col)
            if self.facets is not None:
                self._index(degree, row, col)
        col_entries[row] = scalar

    def delete(self, degree: int, row: int, col: int) -> None:
        col_entries = self.by_col[degree].get(col)
        if col_entries and row in col_entries:
            if self.facets is not None:
                self._unindex(degree, row, col)
            del col_entries[row]
            if not col_entries:
                del self.by_col[degree][col]
            row_cols = self.by_row[degree][row]
            row_cols.remove(col)
            if not row_cols:
                del self.by_row[degree][row]

    def _fill_in(self, degree: int, row: int, col: int, pivot: _Scalar) -> None:
        """b_cd = a_cd - a_rd * (a_cs / a_rs) over the outer product of the
        pivot row and column, both left as they are.

        The factor is taken once per c, as a numerator and a positive
        denominator. While the terms are ints the update is one int
        subtraction; otherwise _minus builds one Fraction, and only when
        the result is not integral.
        """
        by_col, by_row = self.by_col[degree], self.by_row[degree]
        indexed = self.facets is not None
        factors = []
        for c, a_cs in by_col[col].items():
            if c != row:
                factor = _divide(a_cs, pivot)
                factors.append((c, factor.numerator, factor.denominator))
        for d in by_row[row]:
            if d == col:
                continue
            # The pivot row's entry keeps this column nonempty, and each
            # row c keeps its pivot-column entry.
            d_entries = by_col[d]
            a = d_entries[row]
            an, ad = a.numerator, a.denominator
            for c, fn, fd in factors:
                current = d_entries.get(c)
                n, m = an * fn, ad * fd
                if m == 1 and type(current) is not Fraction:
                    scalar = -n if current is None else current - n
                else:
                    scalar = _minus(current, n, m)
                if scalar:
                    d_entries[c] = scalar
                    if current is None:
                        by_row[c].add(d)
                        if indexed:
                            self._index(degree, c, d)
                else:
                    if indexed:
                        self._unindex(degree, c, d)
                    del d_entries[c]
                    by_row[c].remove(d)

    def change_of_basis(self, degree: int, row: int, col: int) -> None:
        """Turn an invertible pivot's row and column into unit vectors."""
        self._fill_in(degree, row, col, self.by_col[degree][col][row])
        for d in list(self.by_row[degree][row]):
            if d != col:
                self.delete(degree, row, d)
        for c in list(self.by_col[degree][col]):
            if c != row:
                self.delete(degree, c, col)
        self.set(degree, row, col, 1)

        # The adjacent differentials lose the pair's row and column.
        if degree + 1 <= self.top:
            for up in list(self.by_row[degree + 1].get(col, ())):
                self.delete(degree + 1, col, up)
        if degree - 1 >= 1:
            for down in list(self.by_col[degree - 1].get(row, ())):
                self.delete(degree - 1, down, row)

    def _drop_face(self, degree: int, pos: int) -> None:
        """Delete a face with every entry on it: its column of diffs[degree]
        and its row of diffs[degree + 1]."""
        indexed = self.facets is not None
        if degree >= 1:
            by_row = self.by_row[degree]
            for row in self.by_col[degree].pop(pos, ()):
                if indexed:
                    self._unindex(degree, row, pos)
                row_cols = by_row[row]
                row_cols.remove(pos)
                if not row_cols:
                    del by_row[row]
        if degree < self.top:
            by_col = self.by_col[degree + 1]
            for col in self.by_row[degree + 1].pop(pos, ()):
                if indexed:
                    self._unindex(degree + 1, pos, col)
                col_entries = by_col[col]
                del col_entries[pos]
                if not col_entries:
                    del by_col[col]
        del self.modules[degree][pos]

    def cancel(self, degree: int, row: int, col: int, strategy_tag: str) -> None:
        """Fill in around the pivot, which the caller has found invertible,
        and delete its two faces. That is the change of basis followed by
        deleting the split pair, without first writing the unit row and
        column."""
        pivot = self.by_col[degree][col][row]
        sigma, tau = self.modules[degree][col], self.modules[degree - 1][row]
        self._fill_in(degree, row, col, pivot)
        self._drop_face(degree, col)
        self._drop_face(degree - 1, row)
        self.trail.append(
            CancellationEvent(sigma, tau, _fraction(pivot), strategy_tag)
        )


def find_invertible_entries(res: Resolution) -> list[tuple[int, Face, Face]]:
    """All invertible positions, ordered by (degree, column, row) position,
    which is (degree, column members, row members) order in a resolution
    whose modules are sorted by members."""
    found = sorted(
        (degree, ci, ri)
        for degree in range(1, res.top + 1)
        for (ri, ci), entry in res.diffs[degree].entries.items()
        if entry.is_invertible
    )
    return [
        (degree, res.modules[degree - 1][ri], res.modules[degree][ci])
        for degree, ci, ri in found
    ]


def _named_pivot(
    res: Resolution, degree: int, row_face: Face, col_face: Face
) -> tuple[_Work, int | None, int | None, str]:
    """A working copy of res, the positions of the pivot's faces found by
    mask (None for an absent face) and the pivot's place for errors."""
    work = _Work(res)
    by_mask = work.positions_by_mask()
    row = by_mask[degree - 1].get(row_face.mask)
    col = by_mask[degree].get(col_face.mask)
    return work, row, col, f"row {row_face.members}, column {col_face.members}"


def standard_change_of_basis(
    res: Resolution, degree: int, row_face: Face, col_face: Face
) -> Resolution:
    """Apply the pivot change of basis and return the rewritten resolution."""
    work, row, col, at = _named_pivot(res, degree, row_face, col_face)
    if work.get(degree, row, col) is None:
        raise IdealError(f"no entry at {at} of the degree-{degree} differential")
    if not work.invertible(degree, row, col):
        raise IdealError(f"pivot at {at} is not invertible")
    work.change_of_basis(degree, row, col)
    return work.freeze()


def standard_cancellation(
    res: Resolution, degree: int, row_face: Face, col_face: Face
) -> Resolution:
    """Change basis around the pivot, then delete the face/row pair."""
    work, row, col, at = _named_pivot(res, degree, row_face, col_face)
    if not work.invertible(degree, row, col):
        raise IdealError(f"cannot cancel {at}: no invertible entry there")
    work.cancel(degree, row, col, "manual")
    return work.freeze()


def eliminate_face_facet_pairs(
    res: Resolution, strategy: Strategy = Deterministic()
) -> EliminationOutcome:
    """Repeatedly cancel invertible face/facet pairs, as the strategy directs."""
    work = _Work(res)
    if isinstance(strategy, Scripted):
        by_mask = work.positions_by_mask()
        for sigma_members, tau_members in strategy.pairs:
            degree = len(sigma_members)
            sigma_mask, tau_mask = _mask_of(sigma_members), _mask_of(tau_members)
            sigma, tau = (
                by_mask[len(m)].get(mask) if len(m) <= work.top else None
                for m, mask in ((sigma_members, sigma_mask), (tau_members, tau_mask))
            )
            problem = None
            if sigma is None or tau is None:
                problem = "face not present"
            elif len(tau_members) != degree - 1 or tau_mask & sigma_mask != tau_mask:
                problem = "not face and facet"
            elif not work.invertible(degree, tau, sigma):
                problem = "no invertible entry there"
            if problem is not None:
                raise IdealError(
                    f"scripted pair ({list(sigma_members)}, {list(tau_members)})"
                    f" is not cancellable: {problem}"
                )
            work.cancel(degree, tau, sigma, "scripted")
            del by_mask[degree][sigma_mask], by_mask[degree - 1][tau_mask]
    else:
        # The index is kept current in place, so each step reads it anew.
        # Keys are negated: the least pivot is the last element.
        facets = work.facet_pivots()
        if isinstance(strategy, SeededRandom):
            rng, tag = random.Random(strategy.seed), f"random:{strategy.seed}"
            while facets:
                degree, col, row = facets[~rng.randrange(len(facets))]
                work.cancel(-degree, -row, -col, tag)
        else:
            while facets:
                degree, col, row = facets[-1]
                work.cancel(-degree, -row, -col, "deterministic")

    resolution = work.freeze()
    # Classes come smallest exponent vector first, faces in sort_key order.
    repeated = repeated_multidegree_classes(resolution)
    if repeated and not work.facet_pivots():
        witness = next(iter(repeated.values()))
        return EliminationOutcome(resolution, "stuck", witness)
    return EliminationOutcome(resolution, "completed", None)


def minimize_generic(res: Resolution) -> Resolution:
    """Cancel invertible entries (facet-related or not) until none remain.

    One sweep over the columns in (degree, column) position order cancels
    each column's invertible entry with the least row position, if it has
    one; no cancellation makes an entry invertible in a column already
    passed. Modules are sorted by members, so that is (degree, column
    members, row members) order. The result has no invertible entries and
    is therefore a minimal resolution. Pivots are exact rationals, so the
    surviving (degree, multidegree) multiset is the multigraded Betti data
    over Q.
    """
    work = _Work(res)
    for degree in range(1, work.top + 1):
        row_classes, col_classes = work.classes[degree - 1], work.classes[degree]
        by_col = work.by_col[degree]
        for col in list(work.modules[degree]):
            k = col_classes[col]
            rows = [r for r in by_col.get(col, ()) if row_classes[r] == k]
            if rows:
                work.cancel(degree, min(rows), col, "generic")
    return work.freeze()


def semidominant_pair_set_A(ideal: MonomialIdeal) -> list[tuple[Face, Face]]:
    """The full family of cancellable face/facet pairs of a semidominant ideal.

    Pairs a subset of the dominant generators with the same subset plus
    the nondominant generator n, whenever n divides the subset's lcm.
    The pairs are pairwise disjoint and exhaust every face/facet pair of
    equal multidegree in the Taylor complex, so cancelling all of them
    (in any order) yields the minimal resolution.
    """
    (n_index,), dominant_indices = _dominance_split(
        ideal, 1, "pair set is defined for semidominant ideals only"
    )
    n = ideal.generators[n_index]
    mdegs = _mdeg_by_mask(ideal)
    pairs = []
    for size in range(1, len(dominant_indices) + 1):
        for combo in combinations(dominant_indices, size):
            sub_lcm = mdegs[_mask_of(combo)]
            if n.divides(sub_lcm):
                tau = Face(combo, sub_lcm)
                sigma = Face(tuple(sorted(combo + (n_index,))), sub_lcm)
                pairs.append((sigma, tau))
    return pairs


@dataclass(frozen=True)
class Theorem71Report:
    """Whether arbitrary-order face/facet elimination is provably safe.

    holds is False when some facet tau, shared by two faces of the same
    multidegree m as tau itself, has a sibling facet (of either face)
    that also carries m; each such triple (tau, sigma, other facet) is a
    violation witness.
    """

    holds: bool
    violations: tuple[tuple[Face, Face, Face], ...]


def check_theorem71_hypothesis(ideal: MonomialIdeal) -> Theorem71Report:
    """Each violation (tau, sigma, other) holds faces of one lcm: tau and other
    are facets of sigma, and tau is also a facet of a second face of that lcm."""
    mdegs, classes = _subsets_by_lcm(ideal)
    triples = []
    for masks in (c for c in classes if len(c) >= 3):
        same = set(masks)
        facets = {s: [f for b in _bits(s) if (f := s ^ 1 << b) in same] for s in masks}
        cofaces = Counter(chain.from_iterable(facets.values()))
        triples += [
            (tau, sigma, other)
            for sigma, fs in facets.items()
            for tau in fs
            if cofaces[tau] >= 2
            for other in fs
            if other != tau
        ]
    faces = {m: _face_from_mask(m, mdegs) for m in set(chain.from_iterable(triples))}
    keys = {m: face.sort_key() for m, face in faces.items()}
    triples.sort(key=lambda t: (keys[t[0]], keys[t[1]], keys[t[2]]))
    witnesses = tuple(tuple(faces[m] for m in t) for t in triples)
    return Theorem71Report(not witnesses, witnesses)
