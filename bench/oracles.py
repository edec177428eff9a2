"""Output checks for the benchmark jobs.

Each check raises CheckFailed on a wrong answer.  Where an independent route
exists the check takes it: its own matrix arithmetic for p(A), determinants
and determinantal divisors for group orders, the rational roots of the cubic
for 2-torsion, Euler's criterion for point counts, and closed formulas for j
and the lambda orbit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import afcurves
from afcurves.exact_linalg import determinantal_divisors


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# --- integer matrices as lists of rows ----------------------------------------


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def poly_at(coeffs, rows):
    """p(M) by Horner on plain lists; coeffs constant-first."""
    n = len(rows)
    acc = [[coeffs[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(coeffs[:-1]):
        acc = mat_mul(acc, rows)
        for i in range(n):
            acc[i][i] += c
    return acc


def check_group(group, coeffs, rows):
    """Z^n / p(M) Z^n against |det p(M)|, plus determinantal divisors for n <= 4."""
    pm = afcurves.IntMatrix(poly_at(coeffs, rows))
    det = afcurves.determinant(pm)
    if det != 0:
        require(group.free_rank == 0, f"free rank {group.free_rank} with det {det}")
        require(group.order() == abs(det), f"order {group.order()} != |det| {abs(det)}")
    else:
        require(group.free_rank >= 1, "det p(M) = 0 but the group is finite")
    if len(rows) <= 4:
        divisors = determinantal_divisors(pm)
        diagonal, prev = [], 1
        for dk in divisors:
            if dk == 0:
                diagonal.append(0)
            else:
                diagonal.append(dk // prev)
                prev = dk
        expected = afcurves.AbelianGroup.from_smith_diagonal(diagonal)
        require(group == expected, f"{group} != {expected} from determinantal divisors")


# --- elliptic curves y^2 = x^3 + a x + b ------------------------------------


def on_curve(a, b, x, y) -> bool:
    x, y = Fraction(x), Fraction(y)
    return y * y == x**3 + a * x + b


def two_torsion_xs(a, b) -> set:
    """Rational roots of x^3 + a x + b: integers dividing b (0 when b = 0)."""
    if b == 0:
        r = math.isqrt(-a) if a < 0 else None
        return {0} if r is None or r * r != -a else {0, r, -r}
    divisors = set()
    for d in range(1, math.isqrt(abs(b)) + 1):
        if b % d == 0:
            divisors |= {d, -d, abs(b) // d, -abs(b) // d}
    return {x for x in divisors if x**3 + a * x + b == 0}


def check_torsion(result, a, b, expected=None):
    """Every returned point is an integral torsion point, and no 2-torsion
    point is missing: one per rational root of x^3 + a x + b, with the full
    Z_2 x Z_2 when there are three."""
    group, points = result
    require(group in afcurves.MAZUR_ADMISSIBLE, f"{group} is not in Mazur's list")
    roots = two_torsion_xs(a, b)
    found = {pt.x for pt in points[1:] if pt.y == 0}
    require(found == roots, f"2-torsion x = {sorted(found)}, want {sorted(roots)}")
    evens = sum(1 for t in group.torsion if t % 2 == 0)
    require(evens == {0: 0, 1: 1, 3: 2}[len(roots)],
            f"{group} does not match {len(roots)} rational 2-torsion points")
    require(len(points) == group.order(), f"{len(points)} points for a group of order {group.order()}")
    require(points[0].is_infinity, "infinity must come first")
    require(len(set(points)) == len(points), "repeated torsion point")
    curve = afcurves.CurveQ(a, b)
    exponent = group.exponent()
    for pt in points[1:]:
        require(pt.x.denominator == 1 and pt.y.denominator == 1, f"{pt} is not integral")
        require(on_curve(a, b, pt.x, pt.y), f"{pt} is not on the curve")
        require(afcurves.mul_point(curve, exponent, pt).is_infinity,
                f"order of {pt} does not divide {exponent}")
    if expected is not None:
        require(group == expected, f"{group} != expected {expected}")


def euler_count(a, b, p) -> int:
    """#E(F_p), infinity included, by Euler's criterion on each x."""
    half = (p - 1) // 2
    total = 1
    for x in range(p):
        f = (x * x * x + a * x + b) % p
        if f == 0:
            total += 1
        elif pow(f, half, p) == 1:
            total += 2
    return total


def trace_counts(a_p, p, order):
    """#E(F_{p^n}) for n = 1..order from the Frobenius trace."""
    out, t_prev, t = [], 2, a_p
    for n in range(1, order + 1):
        out.append(p**n + 1 - t)
        t_prev, t = t, a_p * t - p * t_prev
    return out


def check_hasse(count, p, n=1):
    t = p**n + 1 - count
    require(t * t <= 4 * p**n, f"#E = {count} breaks the Hasse bound at {p}^{n}")


def check_counts(counts, a, b, p):
    """Counts over F_p, F_p^2, ... against Euler's criterion and the recurrence."""
    a_p = p + 1 - euler_count(a, b, p)
    expected = trace_counts(a_p, p, len(counts))
    for n, count in enumerate(counts, start=1):
        check_hasse(count, p, n)
    require(list(counts) == expected, f"counts {list(counts)} != {expected} at p = {p}")
    return a_p


def check_count(count, a, b, p, n):
    """One count over F_{p^n}; past p = 1e5 only the Hasse bound, since
    Euler's criterion over every residue would cost more than the job."""
    check_hasse(count, p, n)
    if p <= 10**5:
        expected = trace_counts(p + 1 - euler_count(a, b, p), p, n)[-1]
        require(count == expected, f"#E = {count} != {expected} at {p}^{n}")


def mat2_pow_trace(rows, k):
    result, base = [[1, 0], [0, 1]], rows
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result[0][0] + result[1][1]


def check_compare_local(report, a, b, rows, p, order):
    a_p = check_counts(report.curve_counts, a, b, p)
    require(len(report.curve_counts) == order, "wrong number of curve counts")
    require(report.a_p == a_p, f"a_p {report.a_p} != {a_p}")
    t = mat2_pow_trace(rows, p)
    require(report.operator_params.trace_power == t, "tr(A^p) differs")
    out, s_prev, s = [], 2, t
    for n in range(1, order + 1):
        out.append(abs(1 - s + p**n))
        s_prev, s = s, t * s - p * s_prev
    require(list(report.operator_counts) == out, "operator counts differ")
    flags = [c == o for c, o in zip(report.curve_counts, report.operator_counts)]
    require(list(report.match_flags) == flags, "match flags differ")


def check_zeta_series(series, a, b, p, order):
    a_p = p + 1 - euler_count(a, b, p)
    require(series.a_p == a_p, f"a_p {series.a_p} != {a_p}")
    require(series.exp_coefficients == series.closed_coefficients, "zeta routes disagree")
    require(len(series.closed_coefficients) == order + 1, "wrong series length")
    require(series.numerator == (1, -a_p, p), "wrong numerator")


def j_of_lambda(lam) -> Fraction:
    lam = Fraction(lam)
    return 256 * (lam * lam - lam + 1) ** 3 / (lam * lam * (lam - 1) ** 2)


def lambda_orbit(lam):
    lam = Fraction(lam)
    one = Fraction(1)
    return {lam, one / lam, one - lam, one / (one - lam), lam / (lam - one), (lam - one) / lam}


def check_lambdas(lambdas, lam):
    j = j_of_lambda(lam)
    require(list(lambdas) == sorted(set(lambdas)), "lambdas are not sorted and distinct")
    require(lambda_orbit(lam) <= set(lambdas), f"orbit of {lam} missing from {lambdas}")
    for r in lambdas:
        require(j_of_lambda(r) == j, f"j({r}) != {j}")
