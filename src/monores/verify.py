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

Each `strand_exactness` call indexes the resolution once: faces grouped
by multidegree per degree, every multidegree packed into one int so that
divisibility is a single integer test, and every differential held as
sparse integer columns (each scaled once by the lcm of its
denominators). A strand is then a selection of face indices, and each of
its maps is ranked by the same sparse elimination over the integers
that `matrix_rank_exact` uses.

`compose_check` sums d∘d over Python ints as well. It keeps one sum per
(row, column, monomial), so terms of different monomials never cancel.
Each entry's monomial is packed into one int, with a field width taken
from the largest exponent of any entry monomial and wide enough for the
sum of two exponents, (2 * largest).bit_length() bits, so adding two
packed monomials multiplies them without a carry between fields. Each
differential's scalars are scaled by the lcm of that whole matrix's
denominators: one constant per matrix scales every d∘d sum alike, while
per-column constants on the lower matrix would reweight the terms of a
sum against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from typing import Iterable, Sequence

from .cancellation import minimize_generic
from .monomials import CapExceededError, Monomial, MonomialIdeal
from .taylor import Resolution, build_taylor, lcm_lattice, strip_trailing_zeros

# Exhaustive strand mode enumerates every exponent vector below the top
# lcm; refuse anything beyond toy size.
EXHAUSTIVE_STRAND_CAP = 50_000


class OracleDisagreementError(RuntimeError):
    """Internal oracles disagree: an implementation bug, never user error."""


def matrix_rank_exact(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals of a dense matrix given as rows.

    A thin adapter onto the sparse kernel the strand oracle uses: each
    column becomes a sparse integer vector, scaled by the lcm of its
    denominators, and the columns are ranked by fraction-free integer
    elimination.
    """
    if not rows or not rows[0]:
        return 0
    return _sparse_rank(
        _integer_column({i: row[j] for i, row in enumerate(rows) if row[j]})
        for j in range(len(rows[0]))
    )


def _integer_column(values: dict[int, Fraction | int]) -> dict[int, int]:
    """A sparse rational column times the lcm of its denominators.

    Scaling a column by a nonzero constant keeps the rank, and restricting
    a scaled column to some rows gives the scaled restriction, so a column
    can be scaled once and then restricted to any strand.
    """
    scale = lcm(*(x.denominator for x in values.values()))
    return {r: x.numerator * (scale // x.denominator) for r, x in values.items()}


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

    Contributions are accumulated per (row, column, monomial) so that a
    corrupted complex cannot pass by accidental cross-monomial mixing.
    The sums run over Python ints. Monomials are packed with fields of
    (2 * largest).bit_length() bits, largest taken over the entry
    monomials (never the faces: a corrupted complex can carry any
    monomial), so packed(a) + packed(b) is packed(a * b) with no carry.
    Scalars are scaled by one lcm of denominators per matrix, which
    multiplies every d∘d sum of a degree by the same nonzero constant;
    per-column scaling, as in the strand index, would reweight the lower
    matrix's terms of one sum against each other.
    """
    largest = max(
        (
            e
            for matrix in res.diffs[1:]
            for entry in matrix.entries.values()
            for e in entry.monomial.exponents
        ),
        default=0,
    )
    width = max(1, (2 * largest).bit_length())
    # Per differential: column index -> [(row index, packed monomial, scalar)].
    by_col: list[dict[int, list[tuple[int, int, int]]]] = [{}]
    for matrix in res.diffs[1:]:
        assert matrix is not None
        scale = lcm(*(entry.scalar.denominator for entry in matrix.entries.values()))
        columns: dict[int, list[tuple[int, int, int]]] = {}
        for (ri, ci), entry in matrix.entries.items():
            x = entry.scalar
            columns.setdefault(ci, []).append(
                (
                    ri,
                    _pack(entry.monomial.exponents, width),
                    x.numerator * (scale // x.denominator),
                )
            )
        by_col.append(columns)
    for degree in range(1, res.top):
        lower = by_col[degree]
        for ci, column in by_col[degree + 1].items():
            sums: dict[tuple[int, int], int] = {}
            for mid, p_upper, x_upper in column:
                for ri, p_lower, x_lower in lower.get(mid, ()):
                    key = (ri, p_lower + p_upper)
                    sums[key] = sums.get(key, 0) + x_lower * x_upper
            if any(sums.values()):
                return False
    return True


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

    Built once per `strand_exactness` call. Every multidegree in play is
    packed into one int: exponent i occupies a field of `width` bits whose
    top bit is a guard, so with G the mask of all guard bits, e divides b
    exactly when ((b | G) - e) & G == G (a field borrows from its guard
    bit precisely when e_i > b_i, and never from the next field). The
    width must hold the largest exponent of the faces and of the targets
    alike, since a target can exceed every face; the generators divide
    the top lcm, which is always a target.
    """

    def __init__(
        self, res: Resolution, ideal: MonomialIdeal, targets: Sequence[Monomial]
    ) -> None:
        faces = (face.mdeg for face in res.iter_faces())
        largest = max(
            (e for m in chain(faces, targets) for e in m.exponents), default=0
        )
        self.width = largest.bit_length() + 1
        self.guard = sum(
            1 << (self.width * (i + 1) - 1) for i in range(len(ideal.vars))
        )
        self.generators = [self.pack(g) for g in ideal.generators]
        # Per degree: packed multidegree -> indices of the faces carrying it.
        self.groups: list[dict[int, list[int]]] = []
        for module in res.modules:
            groups: dict[int, list[int]] = {}
            for i, face in enumerate(module):
                groups.setdefault(self.pack(face.mdeg), []).append(i)
            self.groups.append(groups)
        # Per differential: sparse integer columns, keyed by column index.
        self.columns: list[dict[int, dict[int, int]]] = [{}]
        for matrix in res.diffs[1:]:
            assert matrix is not None
            by_col: dict[int, dict[int, Fraction]] = {}
            for (ri, ci), entry in matrix.entries.items():
                by_col.setdefault(ci, {})[ri] = entry.scalar
            self.columns.append(
                {ci: _integer_column(col) for ci, col in by_col.items()}
            )

    def pack(self, m: Monomial) -> int:
        return _pack(m.exponents, self.width)

    def report(self, b: Monomial) -> StrandReport:
        guard = self.guard
        target = self.pack(b) | guard
        present = [
            [
                i
                for packed, faces in groups.items()
                if (target - packed) & guard == guard
                for i in faces
            ]
            for groups in self.groups
        ]
        top = len(present) - 1
        dims = [len(faces) for faces in present]
        ranks = [0] * (top + 1)
        covered = any((target - g) & guard == guard for g in self.generators)
        ranks[0] = 0 if covered else 1
        for degree in range(1, top + 1):
            if not present[degree - 1] or not present[degree]:
                continue
            rows = set(present[degree - 1])
            columns = self.columns[degree]
            ranks[degree] = _sparse_rank(
                {r: x for r, x in columns[ci].items() if r in rows}
                for ci in present[degree]
                if ci in columns
            )

        exact = True
        failure = None
        for degree in range(top + 1):
            above = ranks[degree + 1] if degree + 1 <= top else 0
            if dims[degree] != ranks[degree] + above:
                exact = False
                failure = degree
                break
        return StrandReport(b, tuple(dims), tuple(ranks), exact, failure)


def strand_exactness(
    res: Resolution, ideal: MonomialIdeal, exhaustive: bool = False
) -> list[StrandReport]:
    """One report per relevant multidegree; all exact iff R resolves S/ideal.

    The default iterates the lcm lattice minus the unit. Exhaustive mode
    iterates every multidegree bounded by the top lcm, unit included.
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
    index = _StrandIndex(res, ideal, targets)
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
    """Path-independent minimal Betti numbers, self-checked for exactness.

    Builds the Taylor complex fresh, minimizes it generically under the
    deterministic pivot order, and reads off the ranks; the result is
    cross-checked against the strand criterion before being returned.
    """
    res = minimize_generic(build_taylor(ideal))
    if not minimality_check(res):
        raise OracleDisagreementError(
            "generic minimization left an invertible entry"
        )
    if not compose_check(res):
        raise OracleDisagreementError(
            "minimized resolution is not a complex (d∘d != 0)"
        )
    reports = strand_exactness(res, ideal)
    bad = [r for r in reports if not r.exact]
    if bad:
        raise OracleDisagreementError(
            f"minimized resolution has an inexact strand at {bad[0].multidegree}"
            f" (degree {bad[0].failure_degree})"
        )
    return strip_trailing_zeros(res.ranks())
