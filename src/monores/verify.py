"""Independent exactness and minimality oracles for resolutions.

Everything here is exact: scalars are rationals, ranks come from
sparse fraction-free elimination over the integers, and no tolerance
appears anywhere, because minimality and exactness are discrete claims.

The workhorse is the strand criterion. Restricting a multigraded complex
to a single multidegree b keeps exactly the faces whose multidegree
divides b and turns each differential into a scalar matrix. The complex
augmented by the quotient module is exact if and only if every strand
satisfies

    dims[j] = ranks[j] + ranks[j+1]   for all j >= 0,

where ranks[j] is the rank of the strand of the degree-j map and
ranks[0] is the rank of the strand of the augmentation (1 when no
generator divides b, else 0). Strands only change when b crosses a
subset lcm, and the homology of the complex is concentrated on such
multidegrees, so checking the lcm lattice suffices; an exhaustive mode
over every multidegree below the top lcm is available for tiny inputs
as a cross-check of that standard fact.

Each `strand_exactness` call indexes the resolution once. Every
differential becomes sparse integer columns, all scaled by one constant,
the lcm of that matrix's denominators; this keeps every rank and keeps a
zero product of two matrices zero. A strand's faces are read off
per-variable threshold bitsets, one AND per variable.

Each strand is first ranked over GF(2), from one bitmask per column of
its odd entries, by XOR elimination. For an integer matrix
rank_GF(2) <= rank_Q, since a minor that is odd is nonzero. If in
addition the strand is a complex over Q, then
rank_Q(d_j) + rank_Q(d_{j+1}) <= dims[j] for every j. So when the GF(2)
ranks already meet dims[j] = ranks[j] + ranks[j+1] at every degree,
each of those inequalities is an equality and the GF(2) ranks are the
rational ranks: the strand is certified exact, with the same report an
exact computation would give. The strand is a complex over Q under two
preconditions, which the index checks once from its own data:

- every entry's row face divides its column face, so each strand is a
  subcomplex (a column inside it has all its rows inside it);
- the scaled scalar matrices compose to zero, so each restriction does.

Only strands with ranks[0] = 0, where no augmentation term enters the
equations, are certified. Every other strand, and every strand of a
resolution that fails a precondition, is ranked exactly over the
integers by the sparse fraction-free elimination that
`matrix_rank_exact` uses. A certificate can only confirm exactness; an
inexact strand is always reported from exact ranks.

`compose_check` sums d∘d over Python ints through the same product of
two integer matrices, and with the same lcm scaling: one constant per
matrix scales every d∘d sum alike, while per-column constants on the
lower matrix would reweight the terms of a sum against each other. It
keeps one sum per (row, column, monomial), so terms of different
monomials never cancel. A row key there is the row index shifted left
by shift = width * (number of variables) bits, with the entry's monomial
packed into the low shift bits, exponent i in bits [i*width,
(i+1)*width). The field width, (2 * largest).bit_length() for the
largest exponent of any entry monomial, holds the sum of two exponents,
so a lower key plus an upper packed monomial multiplies the monomials
with no carry between fields or into the row index. The strand index
passes shift = 0: its row keys are the row indices.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, product
from math import gcd, lcm
from operator import add, or_
from typing import Iterable, Sequence

from .monomials import CapExceededError, Monomial, MonomialIdeal, _monomial
from .taylor import Resolution, _bits, _subsets_by_lcm, lcm_lattice, strip_trailing_zeros

# Exhaustive strand mode enumerates every exponent vector below the top
# lcm; refuse anything beyond toy size.
EXHAUSTIVE_STRAND_CAP = 50_000


class OracleDisagreementError(RuntimeError):
    """Internal oracles disagree: an implementation bug, never user error."""


def matrix_rank_exact(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals of a dense matrix given as rows.

    A thin adapter onto the sparse kernel the strand oracle uses: the
    matrix becomes sparse integer columns, scaled by the lcm of its
    denominators, ranked by fraction-free integer elimination.
    """
    return _sparse_rank(
        _integer_columns(
            {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
        ).values()
    )


def _integer_columns(
    entries: dict[tuple[int, int], Fraction | int]
) -> dict[int, dict[int, int]]:
    """A sparse rational matrix, keyed (row key, column), as integer columns.

    Every entry is multiplied by one constant, the lcm of all the
    denominators. That keeps the rank, keeps a zero product of two
    matrices zero, and restricting the scaled matrix to some rows and
    columns gives the scaled restriction, so one integer form serves
    every strand.
    """
    ratios = [(key, x.as_integer_ratio()) for key, x in entries.items()]
    scale = lcm(*(d for _, (_, d) in ratios))
    columns: dict[int, dict[int, int]] = {}
    for (ri, ci), (n, d) in ratios:
        columns.setdefault(ci, {})[ri] = n * (scale // d)
    return columns


def _sparse_rank(columns: Iterable[dict[int, int]]) -> int:
    """Rank over Q of sparse integer columns by fraction-free elimination.

    Each column is reduced against the pivots found so far, which are
    keyed by their leading (smallest) row. When the leading rows clash,
    the integer combination b*v - a*p with a/b the ratio of the two
    leading entries in lowest terms cancels the leading entry of v
    without leaving the integers. A column that reduces to zero is
    dependent; any other becomes a pivot, divided by its content (the gcd
    of its entries) with a positive leading entry, so entries stay small.
    The number of pivots is the rank over Q, computed exactly. The column
    dicts are consumed: they are reduced in place.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in columns:
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                content = gcd(*vec.values())
                if vec[lead] < 0:
                    content = -content
                if content != 1:
                    vec = {r: x // content for r, x in vec.items()}
                pivots[lead] = vec
                break
            a, b = vec[lead], pivot[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                vec = {r: x * b for r, x in vec.items()}
            for r, x in pivot.items():
                y = vec.get(r, 0) - a * x
                if y:
                    vec[r] = y
                else:
                    del vec[r]
    return len(pivots)


def compose_check(res: Resolution) -> bool:
    """Exact symbolic check that consecutive differentials compose to zero.

    Each entry is keyed (row << shift) | packed monomial, with fields
    (2 * largest).bit_length() bits wide, largest taken over the entry
    monomials (never the faces: a corrupted complex can carry any
    monomial), and shift = width * (number of variables). So the sums run
    per (row, column, monomial), and a corrupted complex cannot pass by
    accidental cross-monomial mixing.
    """
    exponents = [
        entry.monomial.exponents
        for matrix in res.diffs[1:]
        for entry in matrix.entries.values()
    ]
    width = max(1, (2 * max(chain.from_iterable(exponents), default=0)).bit_length())
    shift = width * max(map(len, exponents), default=0)
    columns: list[dict[int, dict[int, int]]] = [{}]
    columns += (
        _integer_columns(
            {
                (ri << shift | _pack(e.monomial.exponents, width), ci): e.scalar
                for (ri, ci), e in matrix.entries.items()
            }
        )
        for matrix in res.diffs[1:]
    )
    return _composes_to_zero(columns, shift)


def _pack(exponents: Sequence[int], width: int) -> int:
    """An exponent vector as one int, exponent i in bits [i*width, (i+1)*width)."""
    packed = 0
    for e in reversed(exponents):
        packed = (packed << width) | e
    return packed


@dataclass(frozen=True)
class StrandReport:
    """Dimensions and differential ranks of one multidegree strand."""

    multidegree: Monomial
    dims: tuple[int, ...]
    ranks: tuple[int, ...]
    exact: bool
    failure_degree: int | None


class _StrandIndex:
    """One resolution indexed for the strand criterion at many multidegrees.

    Built once per `strand_exactness` call. Every differential is held
    as sparse integer columns, scaled once by the lcm of that matrix's
    denominators, and as one bitmask per column of its odd entries.

    The faces of all degrees and then the generators are numbered in one
    sequence, so a set of them is one int. A strand's faces are found
    with per-variable threshold bitsets: for each variable and each
    exponent t that a face or generator carries there, the set of those
    whose exponent is at most t. ANDing one bitset per variable gives
    everything that divides the target; its slices are the strand's
    faces per degree, and its generator slice says whether the target
    lies in the ideal.

    `certifiable` holds when the index's own data meet both preconditions
    of the GF(2) certificate: every entry's row face divides its column
    face, and the scaled scalar matrices compose to zero.
    """

    def __init__(self, res: Resolution, ideal: MonomialIdeal) -> None:
        self.sizes = [len(module) for module in res.modules]
        self.offsets = list(accumulate(self.sizes, initial=0))
        items = [face.mdeg.exponents for face in res.iter_faces()]
        items += [g.exponents for g in ideal.generators]
        # Per variable: the exponents carried, ascending, and for the k-th
        # the set of items whose exponent is at most it (below[v][0] = 0).
        self.values: list[list[int]] = []
        self.below: list[list[int]] = []
        for v in range(len(ideal.vars)):
            by_exponent: dict[int, int] = {}
            for i, exponents in enumerate(items):
                e = exponents[v]
                by_exponent[e] = by_exponent.get(e, 0) | 1 << i
            values = sorted(by_exponent)
            self.values.append(values)
            self.below.append(
                list(accumulate((by_exponent[e] for e in values), or_, initial=0))
            )
        # Per differential: sparse integer columns, keyed by column index.
        self.columns: list[dict[int, dict[int, int]]] = [{}]
        for matrix in res.diffs[1:]:
            assert matrix is not None
            self.columns.append(
                _integer_columns({k: e.scalar for k, e in matrix.entries.items()})
            )
        self.certifiable = self._rows_divide_columns(res) and _composes_to_zero(
            self.columns, 0
        )
        # Per differential and column index: the rows of the odd entries,
        # read only by the certificate.
        self.odd = [[0] * size for size in self.sizes]
        if self.certifiable:
            for odd, columns in zip(self.odd, self.columns):
                for ci, column in columns.items():
                    odd[ci] = sum(1 << r for r, x in column.items() if x & 1)

    def _divisors(self, b: Monomial) -> int:
        """The numbered faces and generators whose multidegree divides b."""
        divisors = -1
        for values, below, e in zip(self.values, self.below, b.exponents):
            divisors &= below[bisect_right(values, e)]
        return divisors

    def _rows_divide_columns(self, res: Resolution) -> bool:
        """Whether every entry's row is a face of the degree below whose
        multidegree divides its column face's."""
        for degree in range(1, len(self.sizes)):
            offset, size = self.offsets[degree - 1], self.sizes[degree - 1]
            faces = res.modules[degree]
            for ci, column in self.columns[degree].items():
                rows = self._divisors(faces[ci].mdeg) >> offset
                if not all(0 <= ri < size and rows >> ri & 1 for ri in column):
                    return False
        return True

    def report(self, b: Monomial) -> StrandReport:
        divisors = self._divisors(b)
        present = [
            divisors >> offset & ((1 << size) - 1)
            for offset, size in zip(self.offsets, self.sizes)
        ]
        covered = divisors >> self.offsets[-1] != 0
        dims = [mask.bit_count() for mask in present]
        ranks = [0 if covered else 1]
        if covered and self.certifiable:
            gf2 = ranks + [
                _gf2_rank([odd[ci] for ci in _bits(mask)])
                for odd, mask in zip(self.odd[1:], present[1:])
            ]
            if _unmet_degree(dims, gf2) is None:
                return StrandReport(b, tuple(dims), tuple(gf2), True, None)
        ranks += [self._exact_rank(present, j) for j in range(1, len(present))]
        failure = _unmet_degree(dims, ranks)
        return StrandReport(b, tuple(dims), tuple(ranks), failure is None, failure)

    def _exact_rank(self, present: list[int], degree: int) -> int:
        if not present[degree - 1] or not present[degree]:
            return 0
        rows = set(_bits(present[degree - 1]))
        columns = self.columns[degree]
        return _sparse_rank(
            {r: x for r, x in columns[ci].items() if r in rows}
            for ci in _bits(present[degree])
            if ci in columns
        )


def _unmet_degree(dims: list[int], ranks: list[int]) -> int | None:
    """The first degree j with dims[j] != ranks[j] + ranks[j+1], ranks
    past the top read as 0; None when the strand is exact."""
    sums = list(map(add, ranks, [*ranks[1:], 0]))
    if sums == dims:
        return None
    return next(j for j, (dim, total) in enumerate(zip(dims, sums)) if dim != total)


def _composes_to_zero(columns: Sequence[dict[int, dict[int, int]]], shift: int) -> bool:
    """Whether each integer matrix, given by sparse columns of row keys,
    times the next one is the zero matrix.

    A row key is a row index shifted left by `shift`, with a packed
    monomial in the low `shift` bits. A term is keyed by the lower
    entry's key plus the upper entry's packed monomial, and the upper
    key's row index names the lower column.
    """
    low = (1 << shift) - 1
    for lower, upper in zip(columns[1:], columns[2:]):
        for column in upper.values():
            sums: dict[int, int] = {}
            for key, y in column.items():
                packed = key & low
                for r, x in lower.get(key >> shift, {}).items():
                    r += packed
                    sums[r] = sums.get(r, 0) + x * y
            if any(sums.values()):
                return False
    return True


def _gf2_rank(columns: Iterable[int]) -> int:
    """Rank over GF(2) of columns given as bitmasks, by XOR elimination."""
    pivots: dict[int, int] = {}
    for vec in columns:
        while vec:
            low = vec & -vec
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = vec
                break
            vec ^= pivot
    return len(pivots)


def strand_exactness(
    res: Resolution, ideal: MonomialIdeal, exhaustive: bool = False
) -> list[StrandReport]:
    """One report per relevant multidegree; all exact iff R resolves S/ideal.

    The default iterates the lcm lattice minus the unit. Exhaustive mode
    iterates every multidegree bounded by the top lcm, unit included.

    A strand inside the ideal (ranks[0] = 0) is certified exact when its
    GF(2) ranks meet the exactness equations at every degree, provided
    every entry's row face divides its column face and the scaled scalar
    matrices compose to zero; those ranks then equal the rational ones.
    Every other strand, and every strand when a precondition fails, is
    ranked exactly over the integers. Either way the reports are the
    ones exact ranks give.
    """
    if exhaustive:
        top = lcm_lattice(ideal).monomials[-1]
        count = 1
        for e in top.exponents:
            count *= e + 1
        if count > EXHAUSTIVE_STRAND_CAP:
            raise CapExceededError(
                f"exhaustive strand check would visit {count} multidegrees"
                f" (cap {EXHAUSTIVE_STRAND_CAP})"
            )
        targets = [
            Monomial(ideal.vars, exps)
            for exps in product(*(range(e + 1) for e in top.exponents))
        ]
    else:
        targets = [b for b in lcm_lattice(ideal).monomials if not b.is_unit]
    index = _StrandIndex(res, ideal)
    return [index.report(b) for b in targets]


def strands_all_exact(reports: Sequence[StrandReport]) -> bool:
    return all(r.exact for r in reports)


def minimality_check(res: Resolution) -> bool:
    """True iff no differential entry has monomial part 1."""
    for degree in range(1, res.top + 1):
        matrix = res.diffs[degree]
        assert matrix is not None
        if any(entry.is_invertible for entry in matrix.entries.values()):
            return False
    return True


def betti_oracle(ideal: MonomialIdeal) -> tuple[int, ...]:
    """Minimal Betti numbers over Q, read off the lcm classes without
    cancellation."""
    return strip_trailing_zeros(map(sum, zip(*_betti_by_lcm(ideal).values())))


def _betti_by_lcm(ideal: MonomialIdeal) -> dict[tuple[int, ...], list[int]]:
    """β_{i,m} for i = 0..q, keyed by the exponents of each subset lcm m.

    Tor_i(S/I, k)_m is the homology of Taylor ⊗ k in multidegree m: the
    faces with lcm m and their ±1 entries to facets with the same lcm
    (Miller–Sturmfels, ch. 1 and 6). So β_{i,m} = dims[i] − rank d_i −
    rank d_{i+1} on that class alone; the 2^q lcm table bounds q.
    """
    mdegs, classes = _subsets_by_lcm(ideal)
    out = {}
    for masks in classes:
        members = set(masks)
        columns: list[list[dict[int, int]]] = [[] for _ in range(len(ideal) + 2)]
        for mask in masks:
            columns[mask.bit_count()].append({
                facet: -1 if pos & 1 else 1
                for pos, member in enumerate(_bits(mask))
                if (facet := mask ^ 1 << member) in members
            })
        dims = [len(c) for c in columns]
        ranks = [_sparse_rank(c) for c in columns]
        betti = [d - r - s for d, r, s in zip(dims, ranks, ranks[1:])]
        out[mdegs[masks[0]].exponents] = betti
    return out


def _check_betti_by_lcm(res: Resolution, ideal: MonomialIdeal) -> None:
    """Raise OracleDisagreementError unless res has exactly β_{i,m} faces
    in each degree i and multidegree m, as _betti_by_lcm reads them."""
    faces = Counter(
        (degree, face.mdeg.exponents)
        for degree, module in enumerate(res.modules)
        for face in module
    )
    tor = {
        (degree, m): b
        for m, betti in _betti_by_lcm(ideal).items()
        for degree, b in enumerate(betti)
        if b
    }
    if faces != tor:
        degree, m = min(set(faces.items()) ^ set(tor.items()))[0]
        raise OracleDisagreementError(
            f"the minimized resolution has {faces[degree, m]} faces of degree"
            f" {degree} and multidegree {_monomial(ideal.vars, m)}, but Tor"
            f" per lcm class gives {tor.get((degree, m), 0)}"
        )
