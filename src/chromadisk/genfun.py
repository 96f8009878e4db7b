"""Counting series for constrained subtrees and their closed-form bounds.

The counts here majorize the number of Penrose trees through a fixed vertex:
a tree is grown with at most two children per vertex, each child drawn from d
slots, and each unordered pair of sibling slots taken from a fixed admissible
set of size m. The ordinary generating function solves u = y (1 + d u + m u^2)
and has the explicit square-root form evaluated below. The module holds the
closed forms only; the enumerated series they bound is
``penrose.penrose_tree_series``.
"""

import math
from dataclasses import dataclass

from .errors import DomainError

_SQRT_SLACK = 1e-14


def _safe_sqrt(arg: float) -> float:
    if arg < 0:
        if arg < -_SQRT_SLACK:
            raise DomainError(f"square root of {arg}")
        arg = 0.0
    return math.sqrt(arg)


@dataclass(frozen=True)
class BranchingParams:
    """d child slots per vertex, m admissible sibling pairs."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 2:
            raise DomainError("d must be at least 2")
        if self.m < 0:
            raise DomainError("m must be nonnegative")

    @property
    def radius(self) -> float:
        """Convergence radius of the counting series: 1 / (2 sqrt(m) + d)."""
        return 1.0 / (2.0 * math.sqrt(self.m) + self.d)


@dataclass(frozen=True)
class TreeCountTable:
    """Counts by vertex number, counts[k] being the number of n = k + 1 trees."""

    params: BranchingParams
    counts: tuple[int, ...]

    def count(self, n: int) -> int:
        if not 1 <= n <= len(self.counts):
            raise IndexError(f"n must be in 1..{len(self.counts)}")
        return self.counts[n - 1]

    def series_value(self, y: float) -> float:
        """Truncated sum over trees of y^(vertices - 1)."""
        acc = 0.0
        for c in reversed(self.counts):
            acc = acc * y + c
        return acc


def tree_count_table(params: BranchingParams, n_max: int) -> TreeCountTable:
    """First n_max counts from the quadratic recurrence.

    u_1 = 1 and u_n = d u_(n-1) + m sum_(j=1)^(n-2) u_j u_(n-1-j): the root
    has either one child subtree hung on one of d slots or two child subtrees
    on one of the m admissible slot pairs. No admissibility is imposed on m
    beyond nonnegativity; values above the number of slot pairs simply count
    a larger formal family.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    u = [1]
    for n in range(2, n_max + 1):
        total = params.d * u[n - 2]
        total += params.m * sum(u[j - 1] * u[n - 1 - j - 1] for j in range(1, n - 1))
        u.append(total)
    return TreeCountTable(params=params, counts=tuple(u))


def tree_series(params: BranchingParams, y: float) -> float:
    """Closed form of the counting series at y in [0, radius).

    Equals 2 / (1 - d y + sqrt((1 - d y)^2 - 4 m y^2)), the branch with value
    1 at y = 0. Outside the domain a DomainError carrying the radius is
    raised.
    """
    r = params.radius
    if not 0 <= y < r:
        err = DomainError(f"y must be in [0, {r}), got {y}")
        err.radius = r
        raise err
    t = 1.0 - params.d * y
    disc = t * t - 4.0 * params.m * y * y
    return 2.0 / (t + _safe_sqrt(disc))


def degree_tree_bound(delta: int, y: float) -> float:
    """Majorant 4 / (1 + sqrt(1 - 2 (delta - 1) y))^2 on [0, 1/(2(delta-1))].

    Dominates the counting series with d = delta - 1 slots and the maximal
    admissible pair count floor((delta - 1)^2 / 4); both endpoints of the
    closed interval are allowed.
    """
    if not isinstance(delta, int) or delta < 3:
        raise DomainError("delta must be an integer >= 3")
    hi = 1.0 / (2.0 * (delta - 1))
    if not 0 <= y <= hi:
        raise DomainError(f"y must be in [0, {hi}], got {y}")
    return envelope_bound((delta - 1) * y)


def envelope_bound(x: float) -> float:
    """Degree-free envelope 4 / (1 + sqrt(1 - 2 x))^2 on [0, 1/2].

    Satisfies envelope_bound(x) >= degree_tree_bound(delta, x / delta) for
    every integer delta >= 3; it ranges from 1 at x = 0 to 4 at x = 1/2.
    """
    if not 0 <= x <= 0.5:
        raise DomainError(f"x must be in [0, 0.5], got {x}")
    s = _safe_sqrt(1.0 - 2.0 * x)
    return 4.0 / ((1.0 + s) ** 2)
