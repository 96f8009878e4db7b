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
infimum of C(a) is 1 / max over x in (0, 1/2] of x s+(x).

Both solves run over t = sqrt(1 - 2x) in [0, 1], where x = (1 - t)(1 + t) / 2
and h = 4 / (1 + t)^2 are smooth, and both are one bracketed root solve
(Brent-Dekker): ``minimize_c`` finds the root of the derivative of x s+(x) in
t, and ``solve_x`` the root of B(a, x(t)) - a; ``fixed_a_bound`` turns the
latter into C(a).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, EnumerationCapError
from .genfun import envelope_bound

# A threshold x below this is returned as 0.
X_BISECTION_TOL = 1e-13
X_CAP_SLACK = 1e-12
TABLE_CHECK_TOL = 5e-6
# Rows constants_table solves at most: step 1e-4, about 0.3 s to solve and
# 0.6 s for a whole `table1 --json` run on two shared cores.
MAX_TABLE_ROWS = 10_001


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


def _x_of_t(t: float) -> float:
    """x = (1 - t)(1 + t) / 2, the point with sqrt(1 - 2x) = t; near t = 1 the
    factor 1 - t is exact, where 1 - t^2 would round x away."""
    return (1.0 - t) * (1.0 + t) / 2.0


def _bracketed_root(f, a: float, b: float, fa: float, fb: float):
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in sign
    or one of them is 0.

    Brent-Dekker (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 4): an inverse quadratic or secant step is taken only while it
    shrinks the bracket faster than bisection, and a bisection step otherwise,
    so it never needs more than about the square of bisection's count of
    evaluations and on a smooth f converges superlinearly. Each step moves at
    least 2 ulp(b) and the loop stops once the bracket is 4 ulp(b) wide, so
    it never creeps toward a root one ulp at a time. Returns
    (b, fb, c, fc): b the best estimate, c the other end of the final bracket,
    with fb = 0 or fb and fc of opposite signs and |c - b| <= 4 ulp(b).
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * math.ulp(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, fb, c, fc
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def _ratio(class_index: int, k: float, one_m_a: float, x: float) -> float:
    """B(a, x) at one_m_a = 1 - a, with the class, kappa and a checked already."""
    h = envelope_bound(x)
    return one_m_a * x + k * x * x / 4.0 * (
        one_m_a * one_m_a + (h - 1.0) * (h - class_index)
    )


def ratio_bound(class_index: int, kappa, a: float, x: float) -> float:
    """B(a, x) above; an upper bound for the removal ratio at radius (1-a)x/delta."""
    _check_class(class_index)
    k = _as_float_kappa(kappa)
    _check_a(a)
    return _ratio(class_index, k, 1.0 - a, x)


def solve_x(class_index: int, kappa, a: float) -> float:
    """Largest x in [0, 1/2] with ratio_bound(..., x) <= a.

    The bound vanishes at x = 0 and increases in x, so the feasible set is an
    interval. The cap 1/2 is returned when even the endpoint is feasible; the
    endpoint test carries a small slack so exact boundary cases (kappa = 0,
    a = 1/3) are not lost to the last floating-point ulp.

    Otherwise the threshold is the root of g(t) = B(a, x(t)) - a over
    t = sqrt(1 - 2x) in [0, 1]: g(0) = B(a, 1/2) - a > 0 past the cap, and
    g(1) = B(a, 0) - a = -a < 0. Of the final bracket's two ends the one with
    g <= 0 is returned, so B(a, x) <= a holds exactly, and a threshold below
    X_BISECTION_TOL is returned as 0. The inputs are checked once, not at
    every step.
    """
    _check_class(class_index)
    k = _as_float_kappa(kappa)
    _check_a(a)
    one_m_a = 1.0 - a
    at_cap = _ratio(class_index, k, one_m_a, 0.5)
    if at_cap <= a + X_CAP_SLACK:
        return 0.5
    excess = lambda t: _ratio(class_index, k, one_m_a, _x_of_t(t)) - a
    t, g, t_other, _ = _bracketed_root(excess, 0.0, 1.0, at_cap - a, -a)
    x = _x_of_t(t if g <= 0.0 else t_other)
    return x if x >= X_BISECTION_TOL else 0.0


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


def _quadratic(class_index: int, kappa: float, x: float, h: float) -> tuple[float, float, float]:
    """q, D and the positive root s+ of q s^2 + b s + (q D - 1) = 0, where
    q = kappa x^2 / 4, D = (h - 1)(h - i) and b = 1 + x.

    On [0, 1/2] q <= 1/16 and D <= 12, so q D < 1 and the root is positive. It
    is written without the cancelling difference -b + sqrt(...), so q = 0
    needs no separate branch.
    """
    q = kappa * x * x / 4.0
    d = (h - 1.0) * (h - class_index)
    qd1 = q * d - 1.0
    b = 1.0 + x
    return q, d, -2.0 * qd1 / (b + math.sqrt(b * b - 4.0 * q * qd1))


def _s_plus(class_index: int, kappa: float, x: float) -> float:
    """Positive root in s = 1 - a of the quadratic form of B(a, x) = a."""
    return _quadratic(class_index, kappa, x, envelope_bound(x))[2]


def minimize_c(class_index: int, kappa) -> BoundResult:
    """Infimum of C(a) over a in (0, 1), via the maximum of phi = x s+(x).

    Over t = sqrt(1 - 2x), phi(t) is smooth on [0, 1], and the derivative of
    s+ follows from the quadratic F(s, t) = q s^2 + (1 + x) s + q D - 1 = 0 by
    implicit differentiation, s_t = -F_t / F_s, with x_t = -t and
    h_t = -2 h / (1 + t). The maximum is a sign change of phi':
    - at t = 0 (x = 1/2), x_t = 0 and q_t = 0, so F_t = q D_t with
      D_t = h_t (2h - 1 - i) = -8 (7 - i) < 0; for kappa > 0 this makes
      s_t > 0 and phi'(0) = x s_t > 0;
    - at t = 1 (x = 0), s+ = 1 and phi'(1) = x_t s+ = -1.
    So for kappa > 0 the maximiser t* is the root of phi' in (0, 1). At
    kappa = 0, phi'(0) = 0 and the root solve returns the endpoint t = 0 at
    once: x* = 1/2 exactly, the optimum there (C = 3, a = 1/3). The minimizer
    is a* = 1 - s+(x*).
    """
    _check_class(class_index)
    k = _as_float_kappa(kappa)

    def dphi(t: float) -> float:
        x = _x_of_t(t)
        h = 4.0 / ((1.0 + t) * (1.0 + t))
        q, d, s = _quadratic(class_index, k, x, h)
        q_t = -k * x * t / 2.0
        d_t = -2.0 * h / (1.0 + t) * (2.0 * h - 1.0 - class_index)
        f_t = q_t * (s * s + d) - t * s + q * d_t
        return -t * s - x * f_t / (2.0 * q * s + 1.0 + x)

    t_star = _bracketed_root(dphi, 0.0, 1.0, dphi(0.0), -1.0)[0]
    x_star = _x_of_t(t_star)
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
