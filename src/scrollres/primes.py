"""The one modulus rule of every F_p computation.

`require_prime_modulus` is the rule for every entry point, the CLI's
`--modulus` included: a prime p with 2 <= p < MAX_MODULUS = 2**26 (3 <= p
for the rank probes), the range checked before the trial division.  It
lives here, not in `linalg`, so that a command refuses a bad modulus
without loading `linalg`.
"""
from __future__ import annotations

from functools import lru_cache
from math import isqrt

MAX_MODULUS = 2**26


@lru_cache(maxsize=None)
def is_prime(q: int) -> bool:
    """Trial division, memoised: every F_p call tests its modulus again."""
    return q >= 2 and all(q % f for f in range(2, isqrt(q) + 1))


def require_prime_modulus(p: int, least: int = 2) -> None:
    """Refuse a modulus that is not a prime p with least <= p < MAX_MODULUS.

    The range comes first, so a huge modulus is refused before `is_prime`,
    whose trial division takes time proportional to its square root.
    """
    if not (least <= p < MAX_MODULUS and is_prime(p)):
        raise ValueError(f"modulus {p} is not a prime p with {least} <= p < 2**26")
