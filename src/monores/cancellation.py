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

Strategies drive which pivots get cancelled. The face/facet eliminator
only cancels pivots whose row face is a facet of its column face (that
is the regime in which dominance theory guarantees order-independence);
the generic minimizer cancels any invertible entry and always reaches a
minimal resolution, because fill-in can create invertible entries
between faces that are not facet-related and thereby rescue states the
restricted eliminator cannot leave.

Pivots are found in one sorted index of the invertible positions, keyed
(degree, column members, row members), which is built once per working
copy and kept current by every entry write and delete: a write inserts a
position only when it creates it, a delete removes it. No step rescans
the matrices. The index never needs re-checking because invertibility
is static per position: every entry at (row, column) carries the
monomial mdeg(column) / mdeg(row), fill-in included, so a position is
invertible exactly when its two faces have equal multidegree, for as
long as it holds an entry. Every strategy loop reads the same index, in
the same (degree, column, row) order, so that order fixes its trail.

All public functions leave their input resolution untouched and return a
fresh one; the loop drivers mutate a private working copy internally.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .dominance import _dominance_split
from .monomials import IdealError, MonomialIdeal
from .taylor import (
    DifferentialMatrix,
    Entry,
    Face,
    Resolution,
    _bits,
    _face_from_mask,
    _mask_of,
    _mdeg_by_mask,
    _subsets_by_lcm,
    face_with_members,
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


_Pivot = tuple[int, tuple[int, ...], tuple[int, ...], Face, Face]


class _Work:
    """Mutable face-keyed view of a resolution, for efficient cancellation.

    modules holds each degree's faces as an insertion-ordered dict, so a
    cancelled face is deleted in O(1) and the rest keep their order.
    pivots holds every invertible position as (degree, column members,
    row members, row, column), sorted. Positions are unique, so tuple
    comparison never reaches the faces.
    """

    __slots__ = ("modules", "by_col", "by_row", "trail", "pivots")

    def __init__(self, res: Resolution) -> None:
        self.modules: list[dict[Face, None]] = [dict.fromkeys(m) for m in res.modules]
        self.by_col: list[dict[Face, dict[Face, Entry]]] = [{}]
        self.by_row: list[dict[Face, dict[Face, Entry]]] = [{}]
        self.trail: list[CancellationEvent] = list(res.trail)
        self.pivots: list[_Pivot] = []
        for degree in range(1, res.top + 1):
            matrix = res.diffs[degree]
            assert matrix is not None
            rows, cols = res.modules[degree - 1], res.modules[degree]
            by_col: dict[Face, dict[Face, Entry]] = {}
            by_row: dict[Face, dict[Face, Entry]] = {}
            for (ri, ci), entry in matrix.entries.items():
                row, col = rows[ri], cols[ci]
                by_col.setdefault(col, {})[row] = entry
                by_row.setdefault(row, {})[col] = entry
                if entry.is_invertible:
                    self.pivots.append((degree, col.members, row.members, row, col))
            self.by_col.append(by_col)
            self.by_row.append(by_row)
        self.pivots.sort()

    @property
    def top(self) -> int:
        return len(self.modules) - 1

    def freeze(self) -> Resolution:
        positions = [{f: i for i, f in enumerate(m)} for m in self.modules]
        diffs: list[DifferentialMatrix | None] = [None]
        for degree in range(1, self.top + 1):
            row_pos, col_pos = positions[degree - 1], positions[degree]
            entries = {
                (row_pos[row], col_pos[col]): entry
                for col, col_entries in self.by_col[degree].items()
                for row, entry in col_entries.items()
            }
            diffs.append(DifferentialMatrix(entries))
        return Resolution([list(m) for m in self.modules], diffs, list(self.trail))

    def get(self, degree: int, row: Face, col: Face) -> Entry | None:
        return self.by_col[degree].get(col, {}).get(row)

    def set(self, degree: int, row: Face, col: Face, entry: Entry) -> None:
        col_entries = self.by_col[degree].setdefault(col, {})
        if row not in col_entries and entry.is_invertible:
            insort(self.pivots, (degree, col.members, row.members, row, col))
        col_entries[row] = entry
        self.by_row[degree].setdefault(row, {})[col] = entry

    def delete(self, degree: int, row: Face, col: Face) -> None:
        col_entries = self.by_col[degree].get(col)
        if col_entries and row in col_entries:
            if col_entries.pop(row).is_invertible:
                key = (degree, col.members, row.members, row, col)
                del self.pivots[bisect_left(self.pivots, key)]
            if not col_entries:
                del self.by_col[degree][col]
            row_entries = self.by_row[degree][row]
            del row_entries[col]
            if not row_entries:
                del self.by_row[degree][row]

    def delete_face(self, degree: int, face: Face) -> None:
        del self.modules[degree][face]
        if degree >= 1:
            for row in list(self.by_col[degree].get(face, {})):
                self.delete(degree, row, face)
        if degree + 1 <= self.top:
            for col in list(self.by_row[degree + 1].get(face, {})):
                self.delete(degree + 1, face, col)

    def change_of_basis(self, degree: int, row_face: Face, col_face: Face) -> None:
        pivot = self.get(degree, row_face, col_face)
        if pivot is None:
            raise IdealError(
                f"no entry at row {row_face.members}, column {col_face.members}"
                f" of the degree-{degree} differential"
            )
        if not pivot.is_invertible:
            raise IdealError(
                f"pivot at row {row_face.members}, column {col_face.members}"
                " is not invertible"
            )
        by_col = self.by_col[degree]
        old_row = dict(self.by_row[degree].get(row_face, {}))
        old_col = dict(by_col.get(col_face, {}))
        # Within one degree equal masks mean equal faces; a caller's
        # resolution may hold equal faces that are distinct objects.
        row_mask = row_face.mask
        col_mask = col_face.mask

        # Fill-in over the outer product of the pivot row and pivot column:
        # b_cd = a_cd - a_rd * (a_cs / a_rs), the factor taken once per c.
        pivot_scalar = pivot.scalar
        factors = [
            (c_face, a_cs.scalar / pivot_scalar)
            for c_face, a_cs in old_col.items()
            if c_face.mask != row_mask
        ]
        for d_face, a_rd in old_row.items():
            if d_face.mask == col_mask:
                continue
            # The pivot row's entry keeps this column dict nonempty (and so
            # in place) until the clean-up below.
            d_entries = by_col[d_face]
            a = a_rd.scalar
            for c_face, factor in factors:
                current = d_entries.get(c_face)
                if current is None:
                    # Every entry at (c, d) carries mdeg(d) / mdeg(c).
                    monomial = d_face.mdeg.exact_div(c_face.mdeg)
                    self.set(degree, c_face, d_face, Entry(-(a * factor), monomial))
                    continue
                scalar = current.scalar - a * factor
                if scalar:
                    self.set(degree, c_face, d_face, Entry(scalar, current.monomial))
                else:
                    self.delete(degree, c_face, d_face)

        # Pivot row and column become unit vectors meeting at the pivot.
        for d_face in old_row:
            if d_face.mask != col_mask:
                self.delete(degree, row_face, d_face)
        for c_face in old_col:
            if c_face.mask != row_mask:
                self.delete(degree, c_face, col_face)
        unit = row_face.mdeg.vars.unit()
        self.set(degree, row_face, col_face, Entry(Fraction(1), unit))

        # The adjacent differentials lose the pair's row and column.
        if degree + 1 <= self.top:
            for col in list(self.by_row[degree + 1].get(col_face, {})):
                self.delete(degree + 1, col_face, col)
        if degree - 1 >= 1:
            for row in list(self.by_col[degree - 1].get(row_face, {})):
                self.delete(degree - 1, row, row_face)

    def cancel(
        self, degree: int, row_face: Face, col_face: Face, strategy_tag: str
    ) -> None:
        pivot = self.get(degree, row_face, col_face)
        if pivot is None or not pivot.is_invertible:
            raise IdealError(
                f"cannot cancel row {row_face.members}, column {col_face.members}:"
                " no invertible entry there"
            )
        pivot_scalar = pivot.scalar
        self.change_of_basis(degree, row_face, col_face)
        self.delete_face(degree, col_face)
        self.delete_face(degree - 1, row_face)
        self.trail.append(
            CancellationEvent(col_face, row_face, pivot_scalar, strategy_tag)
        )

    def facet_pivots(self) -> Iterator[tuple[int, Face, Face]]:
        """Invertible face/facet positions, in (degree, column, row) order."""
        for degree, _, _, row, col in self.pivots:
            if row.is_facet_of(col):
                yield degree, row, col


def find_invertible_entries(res: Resolution) -> list[tuple[int, Face, Face]]:
    """All invertible positions, ordered by (degree, column, row)."""
    return [(degree, row, col) for degree, _, _, row, col in _Work(res).pivots]


def standard_change_of_basis(
    res: Resolution, degree: int, row_face: Face, col_face: Face
) -> Resolution:
    """Apply the pivot change of basis and return the rewritten resolution."""
    work = _Work(res)
    work.change_of_basis(degree, row_face, col_face)
    return work.freeze()


def standard_cancellation(
    res: Resolution,
    degree: int,
    row_face: Face,
    col_face: Face,
    strategy_tag: str = "manual",
) -> Resolution:
    """Change basis around the pivot, then delete the face/row pair."""
    work = _Work(res)
    work.cancel(degree, row_face, col_face, strategy_tag)
    return work.freeze()


def eliminate_face_facet_pairs(
    res: Resolution, strategy: Strategy = Deterministic()
) -> EliminationOutcome:
    """Repeatedly cancel invertible face/facet pairs, as the strategy directs."""
    work = _Work(res)
    if isinstance(strategy, Scripted):
        for sigma_members, tau_members in strategy.pairs:
            degree = len(sigma_members)
            sigma = face_with_members(work.modules, sigma_members)
            tau = face_with_members(work.modules, tau_members)
            problem = None
            if sigma is None or tau is None:
                problem = "face not present"
            elif not tau.is_facet_of(sigma):
                problem = "not face and facet"
            else:
                entry = work.get(degree, tau, sigma)
                if entry is None or not entry.is_invertible:
                    problem = "no invertible entry there"
            if problem is not None:
                raise IdealError(
                    f"scripted pair ({list(sigma_members)}, {list(tau_members)})"
                    f" is not cancellable: {problem}"
                )
            work.cancel(degree, tau, sigma, "scripted")
    elif isinstance(strategy, SeededRandom):
        rng = random.Random(strategy.seed)
        tag = f"random:{strategy.seed}"
        while candidates := list(work.facet_pivots()):
            degree, row, col = candidates[rng.randrange(len(candidates))]
            work.cancel(degree, row, col, tag)
    else:
        while pivot := next(work.facet_pivots(), None):
            degree, row, col = pivot
            work.cancel(degree, row, col, "deterministic")

    resolution = work.freeze()
    # Classes come smallest exponent vector first, faces in sort_key order.
    repeated = repeated_multidegree_classes(resolution)
    if repeated and next(work.facet_pivots(), None) is None:
        witness = next(iter(repeated.values()))
        return EliminationOutcome(resolution, "stuck", witness)
    return EliminationOutcome(resolution, "completed", None)


def minimize_generic(res: Resolution) -> Resolution:
    """Cancel invertible entries (facet-related or not) until none remain.

    Each step removes one rank from two consecutive degrees, so the loop
    terminates; the result has no invertible entries and is therefore a
    minimal resolution. The surviving (degree, multidegree) multiset is
    the multigraded Betti data.
    """
    work = _Work(res)
    while work.pivots:
        degree, _, _, row, col = work.pivots[0]
        work.cancel(degree, row, col, "generic")
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
    mdegs, classes = _subsets_by_lcm(ideal)
    violations: set[tuple[int, int, int]] = set()
    for masks in classes:
        if len(masks) < 3:
            continue
        mask_set = set(masks)
        for tau_mask in masks:
            size = tau_mask.bit_count()
            supersets = [
                m
                for m in masks
                if m.bit_count() == size + 1 and (m & tau_mask) == tau_mask
            ]
            if len(supersets) < 2:
                continue
            for sigma_mask in supersets:
                for bit in _bits(sigma_mask):
                    other_facet = sigma_mask & ~(1 << bit)
                    if other_facet != tau_mask and other_facet in mask_set:
                        violations.add((tau_mask, sigma_mask, other_facet))
    witnesses = [tuple(_face_from_mask(m, mdegs) for m in t) for t in violations]
    ordered = tuple(sorted(witnesses, key=lambda t: tuple(f.sort_key() for f in t)))
    return Theorem71Report(not ordered, ordered)

