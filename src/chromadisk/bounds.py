"""Zero-free disk constants for the two hereditary graph classes.

For class index i in {0, 1} and pair independence ratio kappa, the working
quantity is

    B(a, x) = (1 - a) x + kappa x^2 / 4 * ((1 - a)^2 + (h(x) - 1)(h(x) - i))

with h the degree-free envelope bound. For fixed a in (0, 1) the threshold
x*(a) is the largest x in [0, 1/2] with B(a, x) <= a, the per-a constant is
C(a) = 1 / ((1 - a) x*(a)), and the published constant is the infimum of
C(a) over a.

With s = 1 - a the constraint B(a, x) <= a is a quadratic in s,

    (kappa x^2 / 4) s^2 + (1 + x) s + (kappa x^2 / 4)(h(x) - 1)(h(x) - i) - 1 <= 0,

so for fixed x the feasible s run up to the positive root s+(x), and the
infimum of C(a) is 1 / max over x in (0, 1/2] of x s+(x). ``minimize_c`` finds
that maximum with one golden-section search over x. The fixed-a threshold
``solve_x`` asks the inverse question and stays a bisection on x;
``fixed_a_bound`` turns it into C(a).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, EnumerationCapError
from .genfun import envelope_bound

X_BISECTION_TOL = 1e-13
X_CAP_SLACK = 1e-12
X_GOLDEN_TOL = 1e-12
TABLE_CHECK_TOL = 5e-6
# Rows constants_table solves at most: step 1e-4, about a second and a half.
MAX_TABLE_ROWS = 10_001

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _check_class(class_index: int) -> None:
    if class_index not in (0, 1):
        raise DomainError(f"class index must be 0 or 1, got {class_index}")


def _as_float_kappa(kappa) -> float:
    k = float(kappa)
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"kappa must lie in [0, 1], got {kappa}")
    return k


def _check_a(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise DomainError(f"a must lie in (0, 1), got {a}")


def ratio_bound(class_index: int, kappa, a: float, x: float) -> float:
    """B(a, x) above; an upper bound for the removal ratio at radius (1-a)x/delta."""
    _check_class(class_index)
    k = _as_float_kappa(kappa)
    _check_a(a)
    h = envelope_bound(x)
    one_m_a = 1.0 - a
    return one_m_a * x + k * x * x / 4.0 * (
        one_m_a * one_m_a + (h - 1.0) * (h - class_index)
    )


def solve_x(class_index: int, kappa, a: float) -> float:
    """Largest x in [0, 1/2] with ratio_bound(..., x) <= a, by bisection.

    The bound vanishes at x = 0 and increases in x, so the feasible set is an
    interval. The cap 1/2 is returned when even the endpoint is feasible; the
    endpoint test carries a small slack so exact boundary cases (kappa = 0,
    a = 1/3) are not lost to the last floating-point ulp.
    """
    _check_class(class_index)
    k = _as_float_kappa(kappa)
    _check_a(a)
    if ratio_bound(class_index, k, a, 0.5) <= a + X_CAP_SLACK:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > X_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if ratio_bound(class_index, k, a, mid) <= a:
            lo = mid
        else:
            hi = mid
    return lo


def solve_x_linear(a: float) -> float:
    """Closed form for kappa = 0: a / (1 - a), capped at 1/2."""
    _check_a(a)
    return min(a / (1.0 - a), 0.5)


@dataclass(frozen=True)
class BoundResult:
    """Disk constant C = 1 / ((1 - a) x) at a parameter a and its threshold x.

    ``minimize_c`` returns the minimizing a; ``fixed_a_bound`` a given one."""

    class_index: int
    kappa: float
    a_star: float
    x_star: float
    c_star: float

    def disk_radius(self, delta: int) -> float:
        """Chromatic roots are confined to |q| < c_star * delta.

        Raises DomainError for a delta below 3 or a radius past the float range."""
        if not isinstance(delta, int) or delta < 3:
            raise DomainError("delta must be an integer >= 3")
        radius = self.c_star * delta if delta.bit_length() < 1024 else math.inf
        if math.isinf(radius):
            bits = delta.bit_length()
            raise DomainError(f"delta of {bits} bits: C * delta exceeds the float range")
        return radius

    def z_star(self, delta: int) -> float:
        """Forest-variable radius 1 / (c_star * delta)."""
        return 1.0 / self.disk_radius(delta)


def fixed_a_bound(class_index: int, kappa, a: float) -> BoundResult:
    """Per-a disk constant C(a) = 1 / ((1 - a) x*(a)) with x*(a) from ``solve_x``."""
    x = solve_x(class_index, kappa, a)
    if x <= 0.0:
        raise DomainError(f"threshold x collapsed to zero at a = {a}")
    return BoundResult(
        class_index=class_index,
        kappa=_as_float_kappa(kappa),
        a_star=a,
        x_star=x,
        c_star=1.0 / ((1.0 - a) * x),
    )


def _s_plus(class_index: int, kappa: float, x: float) -> float:
    """Positive root in s = 1 - a of the quadratic form of B(a, x) = a.

    With q = kappa x^2 / 4, D = (h - 1)(h - i) and b = 1 + x the quadratic is
    q s^2 + b s + (q D - 1) = 0. On [0, 1/2] q <= 1/16 and D <= 12, so q D < 1
    and the root is positive. It is written without the cancelling difference
    -b + sqrt(...), so q = 0 needs no separate branch.
    """
    h = envelope_bound(x)
    q = kappa * x * x / 4.0
    qd1 = q * (h - 1.0) * (h - class_index) - 1.0
    b = 1.0 + x
    return -2.0 * qd1 / (b + math.sqrt(b * b - 4.0 * q * qd1))


def minimize_c(class_index: int, kappa) -> BoundResult:
    """Infimum of C(a) over a in (0, 1), via the maximum of x s+(x).

    Golden section on x in [0, 1/2] narrows to X_GOLDEN_TOL; the endpoint
    x = 1/2, where the kappa = 0 optimum lies (C = 3, a = 1/3), is compared
    last and wins ties. The minimizer is a* = 1 - s+(x*).
    """
    _check_class(class_index)
    k = _as_float_kappa(kappa)

    f = lambda x: x * _s_plus(class_index, k, x)
    lo, hi = 0.0, 0.5
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > X_GOLDEN_TOL:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    x_star = c if fc >= fd else d
    if f(0.5) >= max(fc, fd):
        x_star = 0.5
    s_star = _s_plus(class_index, k, x_star)
    return BoundResult(
        class_index=class_index,
        kappa=k,
        a_star=1.0 - s_star,
        x_star=x_star,
        c_star=1.0 / (x_star * s_star),
    )


@dataclass(frozen=True)
class ConstantsRow:
    kappa: float
    c_class0: float
    c_class1: float
    a_star0: float
    a_star1: float


def constants_table(step: float = 0.1) -> list[ConstantsRow]:
    """Rows (kappa, C for class 0, C for class 1, both minimizers) on a grid.

    The grid is kappa = 0, step, 2 step, ..., 1; step must divide 1. A grid
    of more than MAX_TABLE_ROWS rows is refused with EnumerationCapError
    before anything is solved.
    """
    if not 0.0 < step <= 1.0:
        raise DomainError("step must lie in (0, 1]")
    count = round(1.0 / step)
    if abs(count * step - 1.0) > 1e-9:
        raise DomainError(f"step {step} does not divide 1")
    if count + 1 > MAX_TABLE_ROWS:
        raise EnumerationCapError("constants table", count + 1, MAX_TABLE_ROWS)
    rows = []
    for j in range(count + 1):
        kappa = j / count
        r0 = minimize_c(0, kappa)
        r1 = minimize_c(1, kappa)
        rows.append(
            ConstantsRow(
                kappa=kappa,
                c_class0=r0.c_star,
                c_class1=r1.c_star,
                a_star0=r0.a_star,
                a_star1=r1.a_star,
            )
        )
    return rows


# Frozen regression snapshot of constants_table(0.1), rounded to 6 decimals.
# Recomputation must stay within TABLE_CHECK_TOL of every cell.
REFERENCE_TABLE: tuple[ConstantsRow, ...] = (
    ConstantsRow(0.0, 3.000000, 3.000000, 0.333333, 0.333333),
    ConstantsRow(0.1, 3.169627, 3.128158, 0.355952, 0.350761),
    ConstantsRow(0.2, 3.285039, 3.214447, 0.363300, 0.356563),
    ConstantsRow(0.3, 3.377769, 3.283304, 0.367230, 0.359765),
    ConstantsRow(0.4, 3.457121, 3.341956, 0.369749, 0.361902),
    ConstantsRow(0.5, 3.527398, 3.393730, 0.371534, 0.363490),
    ConstantsRow(0.6, 3.591011, 3.440483, 0.372885, 0.364754),
    ConstantsRow(0.7, 3.649470, 3.483371, 0.373957, 0.365812),
    ConstantsRow(0.8, 3.703793, 3.523172, 0.374839, 0.366730),
    ConstantsRow(0.9, 3.754706, 3.560437, 0.375586, 0.367548),
    ConstantsRow(1.0, 3.802747, 3.595574, 0.376232, 0.368292),
)


def kappa_for_bounds(kappa) -> float:
    """Clamp an exact graph ratio into the float argument the solvers take.

    Graph ratios are exact rationals in [0, 1] for claw-free graphs; this is
    the one conversion point so rounding happens in a single place.
    """
    if isinstance(kappa, Fraction):
        if kappa < 0 or kappa > 1:
            raise DomainError(f"kappa {kappa} outside [0, 1]; bounds need claw-free input")
        return float(kappa)
    return _as_float_kappa(kappa)
