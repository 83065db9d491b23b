"""Differential constructors and the mapping-cone resolution for 2-scrolls.

Everything here is specific to k = 2.  Writing m, p for the block sizes
(m + p = n), the building blocks are:

  phi0        2 x (n-2), the scroll matrix with rows swapped and signed
  staircase   d x (d-1)(n-2), d-1 copies of phi0 overlapping by one row
  phi1        (n-2) x (n-2)(n-3), three column bands
  phi2        (n-2)(n-3) x (n-2)(n-3)^2, three row bands
  phi_i       block-diagonal recursion for i >= 3

The free resolutions of the ideals I1 = (x_1..x_m), I2 = (x_{m+1}..x_n)
and J = I1 n I2 are assembled from these, and the resolution of the
residue field is the mapping cone of the chain map alpha that lifts the
inclusion J -> I1 (+) I2, shifted by the augmentation.  Every matrix
that is made of blocks is assembled once, by `_assemble`, from a list of
(row offset, column offset, block) pieces.

Column offsets of the single-row u/v blocks inside phi2's central band
are not forced by the block shapes alone; this implementation pins the
u stack to the left edge and the v stack to the right edge of the band,
the unique placement for which phi1 @ phi2 vanishes (checked for every
block pair exercised by the test suite).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import chain
from types import MappingProxyType

import numpy as np

from .linalg import Entries
from .scrolls import ScrollSpec
from .ring import Element, ScrollRing, ring_for
from .series import betti

# (4,5) at step 7, rank 444,528: `resolve --out` peaks near 410 MB; step 8
# has 6x the rank and would need ~6x the memory
MAX_FREE_RANK = 10**6


class SparseMatrixR:
    """A matrix over the scroll ring stored as {(row, col): Element}.

    Indices are 0-based.  Zero elements are never stored; duplicate
    positions are rejected at construction.  The cached constructors
    (`phi0`, `phi1`, `phi2`, `phi`, `alpha`) hand out read-only entries;
    `copy()` gives a writable matrix.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: ScrollRing, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Element] = {}
        if entries:
            for (r, c), e in (entries.items() if isinstance(entries, dict) else entries):
                self.set(r, c, e)

    def set(self, r: int, c: int, e: Element) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        if (r, c) in self.entries:
            raise ValueError(f"duplicate entry at ({r},{c})")
        if not e.is_zero():
            self.entries[(r, c)] = e

    def get(self, r: int, c: int) -> Element:
        return self.entries.get((r, c), self.ring.zero())

    def items_sorted(self):
        return sorted(self.entries.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrixR)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column index arrays, one per stored entry."""
        flat = chain.from_iterable(self.entries)
        return np.fromiter(flat, np.intp, 2 * len(self.entries)).reshape(-1, 2).T

    def __matmul__(self, other: "SparseMatrixR") -> "SparseMatrixR":
        """The exact product; each distinct pair of entry values is multiplied once.

        Entries get value ids, a join on the inner index lists every
        contribution (row, col, left value, right value), and the normal
        form of each distinct value pair is expanded into its terms and
        summed per (row, col, monomial).  The sums run over an object
        array, so int and Fraction coefficients stay exact, and need no
        second normal form: normal form is linear on standard monomials.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        value_ids: dict[frozenset, int] = {}
        values: list[Element] = []

        def intern(e: Element) -> int:
            key = frozenset(e.terms.items())
            if key not in value_ids:
                value_ids[key] = len(values)
                values.append(e)
            return value_ids[key]

        a_row, a_mid = self._coords()
        a_val = _per_object(list(self.entries.values()), intern, np.intp)
        b_mid, b_col = other._coords()
        b_val = _per_object(list(other.entries.values()), intern, np.intp)
        by_mid = np.argsort(b_mid, kind="stable")
        b_mid, b_col, b_val = b_mid[by_mid], b_col[by_mid], b_val[by_mid]
        lo = np.searchsorted(b_mid, a_mid, side="left")
        width = np.searchsorted(b_mid, a_mid, side="right") - lo
        left = np.repeat(np.arange(a_mid.size), width)
        right = _ranges(lo, width)
        pairs, pair_of = np.unique(a_val[left] * len(values) + b_val[right],
                                   return_inverse=True)

        monomials: dict[tuple, int] = {}
        term_mono, term_coeff = [], []
        term_start = np.zeros(pairs.size + 1, dtype=np.intp)
        for j, pair in enumerate(pairs.tolist()):
            prod = values[pair // len(values)] * values[pair % len(values)]
            for mono, c in prod.terms.items():
                term_mono.append(monomials.setdefault(mono, len(monomials)))
                term_coeff.append(c)
            term_start[j + 1] = len(term_mono)

        n_terms = np.diff(term_start)[pair_of]
        term = _ranges(term_start[:-1][pair_of], n_terms)
        rows = np.repeat(a_row[left], n_terms)
        cols = np.repeat(b_col[right], n_terms)
        mono = np.array(term_mono, dtype=np.intp)[term]
        coeff = np.array(term_coeff, dtype=object)[term]
        order = np.lexsort((mono, cols, rows))
        rows, cols, mono, coeff = rows[order], cols[order], mono[order], coeff[order]
        new = np.ones(rows.size, dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]) | (mono[1:] != mono[:-1])
        first = np.flatnonzero(new)
        sums = np.add.reduceat(coeff, first)
        nonzero = np.flatnonzero(sums != 0)

        by_mono = list(monomials)
        raw: dict[tuple[int, int], dict] = {}
        for r, c, m, total in zip(rows[first[nonzero]].tolist(), cols[first[nonzero]].tolist(),
                                  mono[first[nonzero]].tolist(), sums[nonzero]):
            if isinstance(total, Fraction) and total.denominator == 1:
                total = int(total)
            raw.setdefault((r, c), {})[by_mono[m]] = total
        out = SparseMatrixR(self.ring, self.rows, other.cols)
        out.entries = {pos: Element(self.ring, terms) for pos, terms in raw.items()}
        return out

    def __neg__(self) -> "SparseMatrixR":
        out = SparseMatrixR(self.ring, self.rows, self.cols)
        out.entries = dict(zip(self.entries,
                               _per_object(list(self.entries.values()), _negated, object)))
        return out

    def eval_modp(self, values: list[int], p: int) -> Entries:
        """The entries' images at x_i = values[i-1] mod p, one per entry.

        Shared `Element` objects are evaluated once.
        """
        rows, cols = self._coords()
        vals = _per_object(list(self.entries.values()),
                           lambda e: e.eval_modp(values, p), np.float64)
        return Entries((self.rows, self.cols), rows, cols, vals)

    def _formatted(self, fn=str) -> tuple[list[int], list[int], list[str]]:
        """Rows, columns and fn(entry) in (row, col) order.

        One lexsort orders the coordinates; fn runs once per distinct
        Element object, so shared entries are formatted once.
        """
        rows, cols = self._coords()
        order = np.lexsort((cols, rows))
        texts = _per_object(list(self.entries.values()), fn, object)
        return rows[order].tolist(), cols[order].tolist(), texts[order].tolist()

    def to_json_obj(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(t) for t in zip(*self._formatted())],
        }

    def to_text_lines(self) -> list[str]:
        return [f"{r} {c} {t}" for r, c, t in zip(*self._formatted())]

    def copy(self) -> "SparseMatrixR":
        out = SparseMatrixR(self.ring, self.rows, self.cols)
        out.entries = dict(self.entries)
        return out


# the five lines json.dumps(indent=2) gives a [row, col, "entry"] list
# inside a differential's "entries"
_JSON_ENTRY = "\n        [\n          %d,\n          %d,\n          %s\n        ]"
_WRITE_CHUNK = 1 << 16  # entries formatted per write


def _write_entries(fh, template: str, sep: str, fields) -> None:
    """template % entry for each entry of (rows, cols, texts), sep-joined, in chunks."""
    rows, cols, texts = fields
    for lo in range(0, len(rows), _WRITE_CHUNK):
        hi = lo + _WRITE_CHUNK
        fh.write((sep if lo else "") + sep.join(
            map(template.__mod__, zip(rows[lo:hi], cols[lo:hi], texts[lo:hi]))))


def _per_object(elements: list, fn, dtype) -> np.ndarray:
    """fn(e) for each element as an array, calling fn once per distinct object."""
    ids = np.fromiter(map(id, elements), dtype=np.uintp, count=len(elements))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    return np.array([fn(elements[i]) for i in first.tolist()], dtype=dtype)[inverse]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) + np.repeat(starts - (ends - counts), counts)


@lru_cache(maxsize=None)
def _negated(e: Element) -> Element:
    """-e, one object per distinct value, so negated entries share it."""
    return -e


def _shared(build):
    """Cache a matrix constructor; the matrix it hands out is read-only."""
    @lru_cache(maxsize=None)
    @wraps(build)
    def cached(*args):
        out = build(*args)
        if type(out.entries) is dict:
            out.entries = MappingProxyType(out.entries)
        return out
    return cached


def _assemble(ring: ScrollRing, rows: int, cols: int, pieces) -> SparseMatrixR:
    """A rows x cols matrix from (row offset, col offset, matrix) pieces.

    Each entry of each piece is copied once; pieces must not overlap.
    """
    out = SparseMatrixR(ring, rows, cols)
    entries = out.entries
    for r0, c0, mat in pieces:
        for (r, c), e in mat.entries.items():
            entries[(r0 + r, c0 + c)] = e
    return out


def _diagonal(mats, r0: int = 0, c0: int = 0):
    """(row offset, col offset, matrix) for mats laid corner to corner from (r0, c0)."""
    for mat in mats:
        yield r0, c0, mat
        r0 += mat.rows
        c0 += mat.cols


def _stairs(block: SparseMatrixR, d: int, r0: int = 0, c0: int = 0) -> list:
    """Pieces of a d-row staircase: d-1 copies of a 2-row block, each one row down."""
    return [(r0 + b, c0 + b * block.cols, block) for b in range(d - 1)]


def _row(ring: ScrollRing, elems: list[Element]) -> SparseMatrixR:
    """The 1 x len(elems) matrix of the given entries."""
    out = SparseMatrixR(ring, 1, len(elems))
    out.entries = {(0, c): e for c, e in enumerate(elems)}
    return out


def direct_sum(mats: list[SparseMatrixR]) -> SparseMatrixR:
    """The block-diagonal matrix of mats, first one top left; mats must be non-empty."""
    if not mats:
        raise ValueError("direct sum of nothing")
    return _assemble(mats[0].ring, sum(m.rows for m in mats), sum(m.cols for m in mats),
                     _diagonal(mats))


def _require_two_blocks(spec: ScrollSpec) -> None:
    if spec.k != 2:
        raise ValueError(
            "resolution matrices are only defined for 2-block scrolls"
        )


def _phi0_columns(spec: ScrollSpec) -> list[tuple[int, int]]:
    """(top, bottom) flat variable indices per column of phi0 (1-based)."""
    m, n = spec.m, spec.n
    cols = [(j + 1, j) for j in range(1, m)]           # (x_{j+1}, -x_j)
    cols += [(j + 1, j) for j in range(m + 1, n)]      # (x_{j+1}, -x_j), 2nd block
    return cols


@_shared
def phi0(spec: ScrollSpec) -> SparseMatrixR:
    """2 x (n-2): second row of the scroll matrix over minus its first."""
    _require_two_blocks(spec)
    ring = ring_for(spec)
    out = SparseMatrixR(ring, 2, spec.n - 2)
    for c, (top, bot) in enumerate(_phi0_columns(spec)):
        out.entries[(0, c)] = ring.var_elem(top, 1)
        out.entries[(1, c)] = ring.var_elem(bot, -1)
    return out


def staircase(spec: ScrollSpec, d: int) -> SparseMatrixR:
    """d x (d-1)(n-2): phi0 block b in rows b, b+1, columns b(n-2)..; needs d >= 2."""
    _require_two_blocks(spec)
    if d < 2:
        raise ValueError("staircase needs at least two rows")
    return _assemble(ring_for(spec), d, (d - 1) * (spec.n - 2), _stairs(phi0(spec), d))


@_shared
def phi1(spec: ScrollSpec) -> SparseMatrixR:
    """(n-2) x (n-2)(n-3) in three column bands.

    Left: staircase of height m-1 in the top m-1 rows.  Middle (n-2 wide):
    x_{m+1} times an identity on the top rows, the tail x_{m+2}..x_n in
    row m-1, then -(x_1..x_{m-1}), -x_m down the remaining diagonal.
    Right: staircase of height p-1 in the bottom p-1 rows.
    """
    _require_two_blocks(spec)
    ring = ring_for(spec)
    m, p, n = spec.m, spec.p, spec.n
    w = n - 2
    f0 = phi0(spec)
    out = _assemble(ring, w, w * (n - 3),
                    _stairs(f0, m - 1) + _stairs(f0, p - 1, m - 1, (m - 1) * w))
    mid0 = (m - 2) * w
    for r in range(m - 1):
        out.entries[(r, mid0 + r)] = ring.var_elem(m + 1, 1)
    for l in range(1, p):
        out.entries[(m - 2, mid0 + m - 2 + l)] = ring.var_elem(m + 1 + l, 1)
    for c in range(1, m):
        out.entries[(m - 1, mid0 + c - 1)] = ring.var_elem(c, -1)
    for r in range(1, p):
        out.entries[(m - 2 + r, mid0 + m - 2 + r)] = ring.var_elem(m, -1)
    return out


def u_block(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """(m-2)(n-2) x (n-2), zero except the scroll-matrix top row at row i(n-2)+m."""
    _require_two_blocks(spec)
    m, n = spec.m, spec.n
    if not 0 <= i <= m - 3:
        raise ValueError(f"u block index {i} out of range 0..{m - 3}")
    ring = ring_for(spec)
    out = SparseMatrixR(ring, (m - 2) * (n - 2), n - 2)
    row = i * (n - 2) + m - 1  # 0-based
    tops = [j for j in range(1, m)] + [j for j in range(m + 1, n)]
    for c, flat in enumerate(tops):
        out.entries[(row, c)] = ring.var_elem(flat, 1)
    return out


def v_block(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """(p-2)(n-2) x (n-2), minus the scroll-matrix bottom row at row i(n-2)+m-1."""
    _require_two_blocks(spec)
    m, p, n = spec.m, spec.p, spec.n
    if not 0 <= i <= p - 3:
        raise ValueError(f"v block index {i} out of range 0..{p - 3}")
    ring = ring_for(spec)
    out = SparseMatrixR(ring, (p - 2) * (n - 2), n - 2)
    row = i * (n - 2) + m - 2  # 0-based
    bottoms = [j for j in range(2, m + 1)] + [j for j in range(m + 2, n + 1)]
    for c, flat in enumerate(bottoms):
        out.entries[(row, c)] = ring.var_elem(flat, -1)
    return out


@_shared
def phi2(spec: ScrollSpec) -> SparseMatrixR:
    """(n-2)(n-3) x (n-2)(n-3)^2 in three row bands.

    Top band: m-2 diagonal copies of phi1 over the left columns, with the
    u blocks stacked left-aligned in the central (n-2)(n-3) columns.
    Middle band: minus the height-(n-2) staircase on the central columns.
    Bottom band: the v blocks right-aligned in the central columns, then
    p-2 diagonal copies of phi1 over the right columns.
    """
    _require_two_blocks(spec)
    m, p, n = spec.m, spec.p, spec.n
    w = n - 2
    f1 = phi1(spec)
    mid_c0 = (m - 2) * w * (n - 3)          # first central column
    bot_r0 = (m - 1) * w
    pieces = [
        *_diagonal([f1] * (m - 2)),
        *((0, mid_c0 + b * w, u_block(spec, b)) for b in range(m - 2)),
        *_stairs(-phi0(spec), n - 2, (m - 2) * w, mid_c0),
        *((bot_r0, mid_c0 + (m - 1 + b) * w, v_block(spec, b)) for b in range(p - 2)),
        *_diagonal([f1] * (p - 2), bot_r0, (m - 1) * w * (n - 3)),
    ]
    return _assemble(ring_for(spec), w * (n - 3), w * (n - 3) ** 2, pieces)


@_shared
def phi(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """phi_i; for i >= 3 the direct sum phi_{i-1}^(m-2) + phi_{i-2}^(n-3) + phi_{i-1}^(p-2)."""
    _require_two_blocks(spec)
    if i < 0:
        raise ValueError("phi index must be non-negative")
    if i == 0:
        return phi0(spec)
    if i == 1:
        return phi1(spec)
    if i == 2:
        return phi2(spec)
    m, p, n = spec.m, spec.p, spec.n
    parts = [phi(spec, i - 1)] * (m - 2) + [phi(spec, i - 2)] * (n - 3) \
        + [phi(spec, i - 1)] * (p - 2)
    return direct_sum(parts)


@_shared
def alpha(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """Chain map lifting the inclusion of J into I1 (+) I2.

    alpha_0 is the n x (n-1) two-band matrix; for i >= 1 alpha_i is the
    diagonal x_{m+1} / -x_m square matrix split by the I1/I2 summands.
    """
    _require_two_blocks(spec)
    ring = ring_for(spec)
    m, p, n = spec.m, spec.p, spec.n
    if i < 0:
        raise ValueError("alpha index must be non-negative")
    if i == 0:
        out = SparseMatrixR(ring, n, n - 1)
        for r in range(m):
            out.entries[(r, r)] = ring.var_elem(m + 1, 1)
        for l in range(1, p):
            out.entries[(m - 1, m - 1 + l)] = ring.var_elem(m + 1 + l, 1)
        for c in range(1, m + 1):
            out.entries[(m, c - 1)] = ring.var_elem(c, -1)
        for r in range(2, p + 1):
            out.entries[(m + r - 1, m + r - 2)] = ring.var_elem(m, -1)
        return out
    top = (m - 1) * (n - 2) * (n - 3) ** (i - 1)
    bot = (p - 1) * (n - 2) * (n - 3) ** (i - 1)
    out = SparseMatrixR(ring, top + bot, top + bot)
    xm1 = ring.var_elem(m + 1, 1)
    xm = ring.var_elem(m, -1)
    for r in range(top):
        out.entries[(r, r)] = xm1
    for r in range(bot):
        out.entries[(top + r, top + r)] = xm
    return out


@dataclass
class Resolution:
    """A chain of differentials with their free-module ranks."""
    spec: ScrollSpec
    target: str  # "field", "maximal ideal", "J", "I1" or "I2"
    steps: list[SparseMatrixR]
    ranks: list[int]
    provenance: list[str] = field(default_factory=list)

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            if a.cols != b.rows:
                raise ValueError(
                    f"steps do not chain: {a.rows}x{a.cols} then {b.rows}x{b.cols}"
                )

    def to_json_obj(self) -> dict:
        return {**self._summary(), "steps": [s.to_json_obj() for s in self.steps]}

    def _summary(self) -> dict:
        """The JSON document without its steps."""
        return {
            "spec": {"blocks": list(self.spec.blocks)},
            "target": self.target,
            "ranks": [str(r) for r in self.ranks],
            "provenance": list(self.provenance),
        }

    def write_json(self, fh) -> None:
        """Write json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n".

        The summary goes through json around an empty "steps" list, which
        the differentials then fill one at a time, without a tree.
        """
        import json  # here, not at the top: `import scrollres` does not load json

        doc = json.dumps({**self._summary(), "steps": []}, sort_keys=True, indent=2)
        head, _, tail = doc.partition('"steps": []')
        fh.write(head + '"steps": [')
        for k, step in enumerate(self.steps):
            fh.write(("," if k else "") + '\n    {\n      "cols": %d,\n      "entries": [' % step.cols)
            _write_entries(fh, _JSON_ENTRY, ",", step._formatted(lambda e: json.dumps(str(e))))
            fh.write(("\n      ]" if step.entries else "]") + ',\n      "rows": %d\n    }' % step.rows)
        fh.write(("\n  ]" if self.steps else "]") + tail + "\n")

    def write_text(self, fh) -> None:
        """Write each step as "# step i: rows x cols" then one "row col entry" line per entry."""
        if not self.steps:
            fh.write("\n")
        for idx, step in enumerate(self.steps, start=1):
            fh.write(f"# step {idx}: {step.rows} x {step.cols}\n")
            _write_entries(fh, "%d %d %s\n", "", step._formatted())


def _ideal_step(spec: ScrollSpec, target: str, i: int) -> tuple[SparseMatrixR, int, str]:
    """Differential i of the resolution of J, I1 or I2 as (block, copies, label).

    The differential is `copies` copies of `block` down the diagonal.
    With size the number of generators (n-1 for J, m for I1, p for I2),
    step 0 is the generator row, step 1 is staircase(size), and step
    i >= 2 is phi_{i-1} repeated size-1 times.
    """
    ring = ring_for(spec)
    m, p, n = spec.m, spec.p, spec.n
    sizes = {"J": n - 1, "I1": m, "I2": p}
    if target not in sizes:
        raise ValueError(f"unknown resolution target {target!r}")
    size = sizes[target]
    if i >= 2:
        return phi(spec, i - 1), size - 1, f"phi{i - 1}^+{size - 1}"
    if i == 1:
        return staircase(spec, size), 1, f"staircase({size})"
    if target == "J":
        gens = [ring.monomial_elem([(j, 1), (m + 1, 1)]) for j in range(1, m + 1)]
        gens += [ring.monomial_elem([(m, 1), (m + 1 + l, 1)]) for l in range(1, p)]
        return _row(ring, gens), 1, "skew-diagonal generators"
    first, label = (1, "first-block variables") if target == "I1" \
        else (m + 1, "second-block variables")
    return _row(ring, [ring.var_elem(j, 1) for j in range(first, first + size)]), 1, label


def resolution_of(spec: ScrollSpec, target: str, steps: int) -> Resolution:
    """Free resolution of J, I1 or I2, differentials 0..steps."""
    _require_two_blocks(spec)
    if steps < 1:
        raise ValueError("need at least one step beyond the generators")
    mats, prov = [], []
    for i in range(steps + 1):
        block, copies, label = _ideal_step(spec, target, i)
        mats.append(direct_sum([block] * copies))
        prov.append(label)
    ranks = [mats[0].rows] + [s.cols for s in mats]
    return Resolution(spec, target, mats, ranks, prov)


def _cone_step(spec: ScrollSpec, i: int) -> tuple[SparseMatrixR, str]:
    """Differential i of the field resolution (i >= 1), assembled in one pass.

    Step 1 is the row of variables.  Step i >= 2 is the cone
    [I1 step i-1 (+) I2 step i-1 | alpha_{i-2}; 0 | -(J step i-2)]: the
    I1 and I2 blocks down the diagonal, alpha_{i-2} to their right and,
    from i = 3 on, the J block negated once and repeated below alpha.
    """
    ring = ring_for(spec)
    if i == 1:
        return _row(ring, [ring.var_elem(j, 1) for j in range(1, spec.n + 1)]), "variables"
    b1, k1, l1 = _ideal_step(spec, "I1", i - 1)
    b2, k2, l2 = _ideal_step(spec, "I2", i - 1)
    a = alpha(spec, i - 2)
    rows = k1 * b1.rows + k2 * b2.rows
    cols = k1 * b1.cols + k2 * b2.cols
    pieces = [*_diagonal([b1] * k1 + [b2] * k2), (0, cols, a)]
    label = f"[{l1} + {l2} | alpha{i - 2}"
    if i == 2:
        return _assemble(ring, rows, cols + a.cols, pieces), label + "]"
    bj, kj, lj = _ideal_step(spec, "J", i - 2)
    pieces += _diagonal([-bj] * kj, rows, cols)
    return (_assemble(ring, rows + kj * bj.rows, cols + a.cols, pieces),
            f"{label}; 0 | -{lj}]")


def field_resolution(spec: ScrollSpec, steps: int) -> Resolution:
    """Minimal free resolution of the residue field, differentials 1..steps.

    Step ranks are checked against the closed-form Betti numbers.  The
    last free module may have rank at most MAX_FREE_RANK.
    """
    _require_two_blocks(spec)
    if steps < 1:
        raise ValueError("need at least one step")
    top = betti(spec, steps)
    if top > MAX_FREE_RANK:
        raise ValueError(
            f"resource guard: the free module at step {steps} has rank {top}, "
            "above the supported 10**6"
        )
    mats, prov = [], []
    for i in range(1, steps + 1):
        mat, label = _cone_step(spec, i)
        mats.append(mat)
        prov.append(label)
    ranks = [1] + [s.cols for s in mats]
    for i, r in enumerate(ranks):
        expect = betti(spec, i)
        if r != expect:
            raise AssertionError(
                f"free module rank {r} at step {i} differs from Betti number {expect}"
            )
    return Resolution(spec, "field", mats, ranks, prov)
