"""Scroll specifications, their defining matrices, and binomial generators.

A scroll on blocks (m_1, ..., m_k) lives in n = sum(m_i) variables
x_1 > x_2 > ... > x_n, block i occupying m_i consecutive variables.
Every other module consumes the objects defined here: the 2 x (n-k)
matrix whose 2x2 minors cut out the variety, the (k+1) x n integer
matrix grading the coordinate ring, and the minors themselves as
binomials with their lex-leading term first.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

Monomial = tuple[int, ...]  # exponent vector over x_1..x_n


@dataclass(frozen=True)
class ScrollSpec:
    blocks: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def m(self) -> int:
        if self.k != 2:
            raise ValueError("m is the first block size of a 2-block scroll")
        return self.blocks[0]

    @property
    def p(self) -> int:
        if self.k != 2:
            raise ValueError("p is the second block size of a 2-block scroll")
        return self.blocks[1]

    def block_start(self, block: int) -> int:
        """Flat index (1-based) of the first variable of `block` (1-based)."""
        return 1 + sum(self.blocks[: block - 1])

    def var(self, block: int, pos: int) -> "VarIndex":
        if not (1 <= block <= self.k and 1 <= pos <= self.blocks[block - 1]):
            raise ValueError(f"no variable at block {block}, position {pos}")
        return VarIndex(block, pos, self.block_start(block) + pos - 1)

    def var_at(self, flat: int) -> "VarIndex":
        if not 1 <= flat <= self.n:
            raise ValueError(f"flat index {flat} out of range 1..{self.n}")
        rem = flat
        for b, size in enumerate(self.blocks, start=1):
            if rem <= size:
                return VarIndex(b, rem, flat)
            rem -= size
        raise AssertionError("unreachable")

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.blocks)) + ")"


@dataclass(frozen=True)
class VarIndex:
    """One variable, addressed both by (block, position) and flat index."""
    block: int
    pos: int
    flat: int

    def __str__(self) -> str:
        return f"x{self.flat}"


@dataclass(frozen=True)
class Binomial:
    """Difference of two monomials; `plus` is the lex-leading term."""
    plus: Monomial
    minus: Monomial

    def __str__(self) -> str:
        return f"{format_monomial(self.plus)} - {format_monomial(self.minus)}"


def format_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def build_scroll(blocks) -> ScrollSpec:
    """Validate a block list and return the scroll it defines.

    Each block must be an integer >= 2: a block of size 1 contributes no
    column to the defining matrix, so it is rejected rather than handled.
    """
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("a scroll needs at least one block")
    for b in blocks:
        if not isinstance(b, int):
            raise TypeError(f"block sizes must be integers, got {b!r}")
        if b < 2:
            raise ValueError(f"block sizes must be >= 2, got {b}")
    return ScrollSpec(blocks)


@lru_cache(maxsize=None)
def scroll_matrix(spec: ScrollSpec) -> tuple[tuple[VarIndex, ...], tuple[VarIndex, ...]]:
    """The 2 x (n-k) matrix of consecutive-variable columns, per block.

    Column j of block i is (x_{i,j}, x_{i,j+1}); blocks are concatenated
    left to right, giving n-k columns in total.
    """
    top, bottom = [], []
    for b, size in enumerate(spec.blocks, start=1):
        for j in range(1, size):
            top.append(spec.var(b, j))
            bottom.append(spec.var(b, j + 1))
    return tuple(top), tuple(bottom)


@lru_cache(maxsize=None)
def toric_matrix(spec: ScrollSpec) -> tuple[tuple[int, ...], ...]:
    """(k+1) x n matrix: block indicator rows, then 0,1,...,m_i-1 per block."""
    rows = []
    for b in range(1, spec.k + 1):
        row = []
        for bb, size in enumerate(spec.blocks, start=1):
            row.extend([1 if bb == b else 0] * size)
        rows.append(tuple(row))
    last = []
    for size in spec.blocks:
        last.extend(range(size))
    rows.append(tuple(last))
    return tuple(rows)


def _mono_from_pairs(n: int, pairs) -> Monomial:
    e = [0] * n
    for flat, exp in pairs:
        e[flat - 1] += exp
    return tuple(e)


@lru_cache(maxsize=None)
def minor_generators(spec: ScrollSpec) -> tuple[Binomial, ...]:
    """All distinct 2x2 minors of the scroll matrix, as binomials.

    For columns a < b the minor is top[a]*bottom[b] - bottom[a]*top[b];
    the main-diagonal product is the lex-leading term.  Equal binomials
    from different column pairs are deduplicated and identically-zero
    minors dropped.
    """
    top, bottom = scroll_matrix(spec)
    n = spec.n
    seen = set()
    out = []
    for a, b in combinations(range(len(top)), 2):
        plus = _mono_from_pairs(n, [(top[a].flat, 1), (bottom[b].flat, 1)])
        minus = _mono_from_pairs(n, [(bottom[a].flat, 1), (top[b].flat, 1)])
        if plus == minus or (plus, minus) in seen:
            continue
        seen.add((plus, minus))
        out.append(Binomial(plus, minus))
    out.sort(key=lambda g: (g.plus, g.minus), reverse=True)
    return tuple(out)


# The faults `checks.inject_fault` can plant in a resolution.  They are
# named here, in the layer `import scrollres` runs, so that the CLI can
# offer them as `verify --inject-fault` choices without loading `checks`.
FAULT_KINDS = ("sign_flip", "variable_swap", "unit_insert")
