"""Support shapes: the prescribed index sets for vanishing polynomials.

A shape is a pair (F, G) of strictly increasing sequences of exponent
pairs under the anti-lexicographic order (compare y-exponents first).
F collects the terms that involve y, G the pure powers of x.  A shape is
either the full grid below given degree bounds or any (F, G) passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


def antilex_key(pair: tuple[int, int]) -> tuple[int, int]:
    """Sort key for the anti-lexicographic order: (i1,j1) <= (i2,j2) iff
    j1 < j2 or (j1 = j2 and i1 <= i2)."""
    i, j = pair
    return (j, i)


@dataclass(frozen=True)
class SupportShape:
    F: tuple[tuple[int, int], ...]
    G: tuple[tuple[int, int], ...]

    def __post_init__(self):
        F = tuple((int(i), int(j)) for i, j in self.F)
        G = tuple((int(i), int(j)) for i, j in self.G)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)
        if not F:
            raise InputError("shape needs at least one y-term")
        for i, j in F:
            if j < 1 or i < 0:
                raise InputError(f"F entry {(i, j)} must have j >= 1 and i >= 0")
        for i, j in G:
            if j != 0 or i < 1:
                raise InputError(f"G entry {(i, j)} must have j = 0 and i >= 1")
        for seq, name in ((F, "F"), (G, "G")):
            keys = [antilex_key(p) for p in seq]
            if any(a >= b for a, b in zip(keys, keys[1:])):
                raise InputError(f"{name} must be strictly increasing anti-lexicographically")

    @property
    def max_y(self) -> int:
        return max(j for _, j in self.F)

    def within_bounds(self, dx: int, dy: int) -> bool:
        return all(i <= dx for i, _ in self.F + self.G) and all(j <= dy for _, j in self.F)


def full_support(dx: int, dy: int) -> SupportShape:
    """The unconstrained shape: every (i, j) below the bounds, in anti-lex
    order."""
    F = tuple((i, j) for j in range(1, dy + 1) for i in range(dx + 1))
    G = tuple((i, 0) for i in range(1, dx + 1))
    return SupportShape(F, G)
