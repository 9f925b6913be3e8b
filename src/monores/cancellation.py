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

The arithmetic is exact throughout and runs on Python ints while values
are integral. Taylor entries start at ±1, and in practice their pivots
stay ±1, so their values stay integral. Each scalar is read once, as its
numerator when its denominator is 1; a division by ±1 is a sign change
and any other goes through Fraction, so no float ever appears. Ints and
Fractions mix exactly in one expression, and a result becomes a
Fraction again only where it is stored in an Entry, so Entry.scalar and
the trail's pivot scalars are always Fractions.

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

All public functions take and return faces, leave their input resolution
untouched and return a fresh one; the loop drivers mutate a private
working copy internally. That copy keys every face by its generator
bitmask, which is unique within a degree, so two equal faces that are
distinct objects are one key, and no face is hashed.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from operator import sub
from typing import Iterator

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


_Pivot = tuple[int, tuple[int, ...], tuple[int, ...], int, int]

_ONE = Fraction(1)


def _value(x: Fraction) -> int | Fraction:
    """x as an int when it is integral, else x itself."""
    return x.numerator if x.denominator == 1 else x


def _fraction(x: int | Fraction) -> Fraction:
    """x as the Fraction an Entry stores."""
    return x if type(x) is Fraction else Fraction(x)


def _divide(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """The exact quotient a / b: a or -a when b is ±1, else a Fraction, so
    that no division ever yields a float."""
    if b == 1:
        return a
    if b == -1:
        return -a
    return Fraction(a, b)


class _Work:
    """Mutable mask-keyed view of a resolution, for efficient cancellation.

    Every face is keyed by its generator-subset bitmask. modules holds
    each degree's faces as an insertion-ordered mask -> Face dict, so a
    cancelled face is deleted in O(1) and the rest keep their order;
    by_col and by_row hold each differential's entries keyed by column
    mask then row mask, and by row mask then column mask. Faces are read
    from modules only for what masks do not carry: multidegrees for
    fill-in monomials, and members for pivot keys and trail events.
    pivots holds every invertible position as (degree, column members,
    row members, row mask, column mask), sorted.
    """

    __slots__ = ("modules", "by_col", "by_row", "trail", "pivots")

    def __init__(self, res: Resolution) -> None:
        self.modules: list[dict[int, Face]] = [
            {f.mask: f for f in m} for m in res.modules
        ]
        self.by_col: list[dict[int, dict[int, Entry]]] = [{}]
        self.by_row: list[dict[int, dict[int, Entry]]] = [{}]
        self.trail: list[CancellationEvent] = list(res.trail)
        self.pivots: list[_Pivot] = []
        for degree in range(1, res.top + 1):
            matrix = res.diffs[degree]
            assert matrix is not None
            rows, cols = res.modules[degree - 1], res.modules[degree]
            by_col: dict[int, dict[int, Entry]] = {}
            by_row: dict[int, dict[int, Entry]] = {}
            for (ri, ci), entry in matrix.entries.items():
                row, col = rows[ri], cols[ci]
                by_col.setdefault(col.mask, {})[row.mask] = entry
                by_row.setdefault(row.mask, {})[col.mask] = entry
                if entry.is_invertible:
                    self.pivots.append(
                        (degree, col.members, row.members, row.mask, col.mask)
                    )
            self.by_col.append(by_col)
            self.by_row.append(by_row)
        self.pivots.sort()

    @property
    def top(self) -> int:
        return len(self.modules) - 1

    def freeze(self) -> Resolution:
        positions = [{mask: i for i, mask in enumerate(m)} for m in self.modules]
        diffs: list[DifferentialMatrix | None] = [None]
        for degree in range(1, self.top + 1):
            row_pos, col_pos = positions[degree - 1], positions[degree]
            entries = {
                (row_pos[row], col_pos[col]): entry
                for col, col_entries in self.by_col[degree].items()
                for row, entry in col_entries.items()
            }
            diffs.append(DifferentialMatrix(entries))
        modules = [list(m.values()) for m in self.modules]
        return Resolution(modules, diffs, list(self.trail))

    def _pivot_key(self, degree: int, row: int, col: int) -> _Pivot:
        row_members = self.modules[degree - 1][row].members
        return (degree, self.modules[degree][col].members, row_members, row, col)

    def get(self, degree: int, row: int, col: int) -> Entry | None:
        return self.by_col[degree].get(col, {}).get(row)

    def set(self, degree: int, row: int, col: int, entry: Entry) -> None:
        col_entries = self.by_col[degree].setdefault(col, {})
        if row not in col_entries and entry.is_invertible:
            insort(self.pivots, self._pivot_key(degree, row, col))
        col_entries[row] = entry
        self.by_row[degree].setdefault(row, {})[col] = entry

    def delete(self, degree: int, row: int, col: int) -> None:
        col_entries = self.by_col[degree].get(col)
        if col_entries and row in col_entries:
            if col_entries.pop(row).is_invertible:
                key = self._pivot_key(degree, row, col)
                del self.pivots[bisect_left(self.pivots, key)]
            if not col_entries:
                del self.by_col[degree][col]
            row_entries = self.by_row[degree][row]
            del row_entries[col]
            if not row_entries:
                del self.by_row[degree][row]

    def change_of_basis(self, degree: int, row: int, col: int) -> None:
        pivot = self.get(degree, row, col)
        if pivot is None:
            raise IdealError(
                f"no entry at row {tuple(_bits(row))}, column {tuple(_bits(col))}"
                f" of the degree-{degree} differential"
            )
        if not pivot.is_invertible:
            raise IdealError(
                f"pivot at row {tuple(_bits(row))}, column {tuple(_bits(col))}"
                " is not invertible"
            )
        by_col = self.by_col[degree]
        old_row = dict(self.by_row[degree].get(row, {}))
        old_col = dict(by_col.get(col, {}))
        rows, cols = self.modules[degree - 1], self.modules[degree]

        # Fill-in over the outer product of the pivot row and pivot column:
        # b_cd = a_cd - a_rd * (a_cs / a_rs), the factor taken once per c,
        # on ints while the values are integral.
        pivot_scalar = _value(pivot.scalar)
        factors = [
            (c, _divide(_value(a_cs.scalar), pivot_scalar))
            for c, a_cs in old_col.items()
            if c != row
        ]
        vars = pivot.monomial.vars
        for d, a_rd in old_row.items():
            if d == col:
                continue
            # The pivot row's entry keeps this column dict nonempty (and so
            # in place) until the clean-up below.
            d_entries = by_col[d]
            a = _value(a_rd.scalar)
            d_exponents = cols[d].mdeg.exponents
            for c, factor in factors:
                current = d_entries.get(c)
                if current is None:
                    # Every entry at (c, d) carries mdeg(d) / mdeg(c).
                    quotient = tuple(map(sub, d_exponents, rows[c].mdeg.exponents))
                    monomial = _monomial(vars, quotient)
                    scalar = _fraction(-(a * factor))
                    entry = _entry(scalar, monomial, not any(quotient))
                    self.set(degree, c, d, entry)
                    continue
                scalar = _value(current.scalar) - a * factor
                if scalar:
                    entry = _entry(
                        _fraction(scalar), current.monomial, current.is_invertible
                    )
                    self.set(degree, c, d, entry)
                else:
                    self.delete(degree, c, d)

        # Pivot row and column become unit vectors meeting at the pivot.
        for d in old_row:
            if d != col:
                self.delete(degree, row, d)
        for c in old_col:
            if c != row:
                self.delete(degree, c, col)
        self.set(degree, row, col, _entry(_ONE, pivot.monomial, True))

        # The adjacent differentials lose the pair's row and column.
        if degree + 1 <= self.top:
            for up in list(self.by_row[degree + 1].get(col, {})):
                self.delete(degree + 1, col, up)
        if degree - 1 >= 1:
            for down in list(self.by_col[degree - 1].get(row, {})):
                self.delete(degree - 1, down, row)

    def cancel(self, degree: int, row: int, col: int, strategy_tag: str) -> None:
        pivot = self.get(degree, row, col)
        if pivot is None or not pivot.is_invertible:
            raise IdealError(
                f"cannot cancel row {tuple(_bits(row))}, column {tuple(_bits(col))}:"
                " no invertible entry there"
            )
        sigma, tau = self.modules[degree][col], self.modules[degree - 1][row]
        self.change_of_basis(degree, row, col)
        # Fill-in writes no entry in the pivot's row or column, and the
        # adjacent row and column are cleared, so the pivot is the one entry
        # left on either face. It goes first: its delete reads both faces.
        self.delete(degree, row, col)
        del self.modules[degree][col]
        del self.modules[degree - 1][row]
        self.trail.append(CancellationEvent(sigma, tau, pivot.scalar, strategy_tag))

    def facet_pivots(self) -> Iterator[tuple[int, int, int]]:
        """Invertible face/facet positions, in (degree, column, row) order."""
        for degree, _, _, row, col in self.pivots:
            if row & col == row and (col ^ row).bit_count() == 1:
                yield degree, row, col


def find_invertible_entries(res: Resolution) -> list[tuple[int, Face, Face]]:
    """All invertible positions, ordered by (degree, column, row)."""
    work = _Work(res)
    return [
        (degree, work.modules[degree - 1][row], work.modules[degree][col])
        for degree, _, _, row, col in work.pivots
    ]


def standard_change_of_basis(
    res: Resolution, degree: int, row_face: Face, col_face: Face
) -> Resolution:
    """Apply the pivot change of basis and return the rewritten resolution."""
    work = _Work(res)
    work.change_of_basis(degree, row_face.mask, col_face.mask)
    return work.freeze()


def standard_cancellation(
    res: Resolution, degree: int, row_face: Face, col_face: Face
) -> Resolution:
    """Change basis around the pivot, then delete the face/row pair."""
    work = _Work(res)
    work.cancel(degree, row_face.mask, col_face.mask, "manual")
    return work.freeze()


def eliminate_face_facet_pairs(
    res: Resolution, strategy: Strategy = Deterministic()
) -> EliminationOutcome:
    """Repeatedly cancel invertible face/facet pairs, as the strategy directs."""
    work = _Work(res)
    if isinstance(strategy, Scripted):
        for sigma_members, tau_members in strategy.pairs:
            degree = len(sigma_members)
            sigma, tau = (
                work.modules[len(m)].get(_mask_of(m)) if len(m) <= work.top else None
                for m in (sigma_members, tau_members)
            )
            problem = None
            if sigma is None or tau is None:
                problem = "face not present"
            elif not tau.is_facet_of(sigma):
                problem = "not face and facet"
            else:
                entry = work.get(degree, tau.mask, sigma.mask)
                if entry is None or not entry.is_invertible:
                    problem = "no invertible entry there"
            if problem is not None:
                raise IdealError(
                    f"scripted pair ({list(sigma_members)}, {list(tau_members)})"
                    f" is not cancellable: {problem}"
                )
            work.cancel(degree, tau.mask, sigma.mask, "scripted")
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
    minimal resolution. Pivots are exact rationals, so the surviving
    (degree, multidegree) multiset is the multigraded Betti data over Q.
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
