"""Exact generators: rational functions of u = sqrt(x), and r + t*S.

Every generator in the catalog is a ratio of integer-coefficient
polynomials in u = sqrt(x) (``RatU``), or, for the root-mean-square mean
S = sqrt((x^2 + 1) / 2) and its six differences, r + t*S with r and t
of that kind (``RatS``).  Keeping them in that form buys three things
that floating point cannot:

* values stay accurate near the diagonal x = 1, because the (u - 1)^m
  factor of the numerator is split off and evaluated from x - 1 directly
  instead of by subtracting two nearby square roots;
* second derivatives come from differentiating polynomials, so ratios of
  second derivatives are themselves exact rational functions;
* limits at x -> 1 reduce to ratios of deflated leading coefficients,
  giving the sharp constants as exact fractions.

Coefficients are ``fractions.Fraction`` throughout.  Float evaluation is
vectorised over numpy arrays with Horner's rule on the deflated parts, and
reads its u = sqrt(x), u - 1 and (u - 1)^m from a ``UContext`` that every
generator evaluated at the same points can share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

__all__ = ["Poly", "RatU", "RatS", "UContext", "U", "ONE", "X",
           "solve_exact"]


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Poly:
    """Polynomial in one variable with exact Fraction coefficients.

    Coefficients are stored in ascending order: ``Poly([a0, a1, a2])``
    is a0 + a1*u + a2*u**2.
    """

    __slots__ = ("coeffs", "_fcoeffs")

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._fcoeffs = None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly([])
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly([c * _frac(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def deriv(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, k: int) -> "Poly":
        """Multiply by u**k."""
        if self.is_zero():
            return self
        return Poly([Fraction(0)] * k + list(self.coeffs))

    def __call__(self, value: Scalar) -> Fraction:
        """Exact Horner evaluation at a Fraction (or int) point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def eval_float(self, u):
        """Horner evaluation at a float or numpy array.

        Arrays are updated in place (one multiply and one add per
        coefficient into a single accumulator); the operations and their
        order are those of the scalar loop, so both give the same bits.
        """
        if self._fcoeffs is None:
            self._fcoeffs = [float(c) for c in self.coeffs]
        if not isinstance(u, np.ndarray):
            acc = 0.0
            for c in reversed(self._fcoeffs):
                acc = acc * u + c
            return acc
        acc = np.zeros_like(u)
        for c in reversed(self._fcoeffs):
            np.multiply(acc, u, out=acc)
            np.add(acc, c, out=acc)
        return acc

    def divmod_exact(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial long division; exact because coefficients are Fractions."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            q = rem[i] / lead
            quo[i - dd] = q
            if q != 0:
                for j, c in enumerate(div):
                    rem[i - dd + j] -= q * c
        return Poly(quo), Poly(rem)

    def positive_roots(self) -> int:
        """Number of distinct roots in u > 0, counted by a Sturm sequence.

        The u**k factor is stripped first, so u = 0 is not a root and the
        count is the drop in sign changes of p, p', -rem(p, p'), ... from
        u = 0 (constant terms) to u = +inf (leading coefficients).
        """
        if self.is_zero():
            raise ValueError("the zero polynomial vanishes everywhere")
        k = next(i for i, c in enumerate(self.coeffs) if c != 0)
        seq = [Poly(self.coeffs[k:])]
        nxt = seq[0].deriv()
        while not nxt.is_zero():
            seq.append(nxt)
            nxt = -seq[-2].divmod_exact(nxt)[1]

        def changes(values) -> int:
            signs = [v > 0 for v in values if v != 0]
            return sum(s != t for s, t in zip(signs, signs[1:]))

        return (changes(p.coeffs[0] for p in seq)
                - changes(p.coeffs[-1] for p in seq))

    def deflate(self, root: Scalar = 1) -> tuple["Poly", int]:
        """Split off the highest power of (u - root) dividing this polynomial.

        Returns (quotient, multiplicity) with quotient(root) != 0.
        """
        if self.is_zero():
            return self, 0
        root, cs, m = _frac(root), self.coeffs, 0
        while True:     # synthetic division by u - root; p(root) comes last
            sums = list(accumulate(reversed(cs), lambda s, c: s * root + c))
            if sums[-1] != 0:
                return Poly(cs), m
            cs, m = sums[-2::-1], m + 1

    def content_free(self) -> tuple["Poly", Fraction]:
        """Return (primitive polynomial, scale) with integer coprime coefficients."""
        if self.is_zero():
            return self, Fraction(1)
        from math import gcd, lcm

        den = lcm(*[c.denominator for c in self.coeffs])
        ints = [c * den for c in self.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, int(c))
        sign = -1 if ints[-1] < 0 else 1
        scale = Fraction(g * sign, den)
        return Poly([c / scale for c in self.coeffs]), scale

    def __repr__(self):
        if self.is_zero():
            return "Poly([0])"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*u" if c != 1 else "u")
            else:
                terms.append(f"{c}*u^{i}" if c != 1 else f"u^{i}")
        return " + ".join(terms)


U = Poly([0, 1])
ONE = Poly([1])
X = Poly([0, 0, 1])


class UContext:
    """The float quantities every generator evaluated at one x shares.

    Holds x, u = sqrt(x), um1 = (x - 1) / (u + 1) (that is u - 1, free of
    the cancellation near x = 1) and a memo of um1 ** float(m) per
    exponent m, so generators with the same m pay for the power once.
    A scalar x is held as a 0-d array.  The audit builds one context per
    run sample, or one per chunk when a chain scan spans several chunks.
    The memo makes a context stateful: build one per thread and per
    point set, never share it across threads.
    """

    __slots__ = ("x", "u", "um1", "_powers")

    def __init__(self, x):
        self.x = x if isinstance(x, np.ndarray) else np.asarray(float(x))
        self.u = np.sqrt(self.x)
        self.um1 = (self.x - 1.0) / (self.u + 1.0)
        self._powers: dict[int, object] = {}

    def um1_pow(self, m: int):
        """um1 ** float(m), computed on first request and then reused.

        A scalar's power is taken by the array routine too: numpy's
        scalar power can round apart from it, and a scalar's value must
        have the bits it has inside any array.
        """
        p = self._powers.get(m)
        if p is None:
            with np.errstate(divide="ignore"):
                p = np.power(np.atleast_1d(self.um1), float(m))
            p = self._powers[m] = p if np.ndim(self.um1) else p[0]
        return p


class RatU:
    """Rational function of u = sqrt(x) in deflated form.

    The value at u is ``(u - 1)**m * num(u) / den(u)`` where num(1) != 0
    and den(1) != 0.  Near x = 1 the (u - 1)**m factor is computed as
    ((x - 1) / (u + 1))**m, which costs one subtraction of well-separated
    quantities instead of m catastrophic ones.  ``eval_ctx`` is the one
    float evaluator; ``__call__`` runs it on a context of its own.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, num: Poly, den: Poly = ONE, m: int = 0):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num2, dm = num.deflate()
        den2, em = den.deflate()
        m = m + dm - em
        if num2.is_zero():
            m = 0
            den2 = ONE
        else:
            num2, ns = num2.content_free()
            den2, ds = den2.content_free()
            num2 = num2 * (ns / ds)
        self.num = num2
        self.den = den2
        self.m = m

    @classmethod
    def zero(cls) -> "RatU":
        return cls(Poly([]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _as_pair(self) -> tuple[Poly, Poly]:
        """Undeflated (numerator, denominator)."""
        um1 = Poly([-1, 1])
        if self.m >= 0:
            return self.num * um1 ** self.m, self.den
        return self.num, self.den * um1 ** (-self.m)

    def __add__(self, other: "RatU") -> "RatU":
        if not isinstance(other, RatU):
            return NotImplemented
        # (u-1)^k with k = min(m) stays factored out, so it is neither
        # multiplied in nor divided out again by the deflation.
        k = min(self.m, other.m)
        um1 = Poly([-1, 1])
        an = self.num * um1 ** (self.m - k)
        bn = other.num * um1 ** (other.m - k)
        return RatU(an * other.den + bn * self.den, self.den * other.den, k)

    def __sub__(self, other: "RatU") -> "RatU":
        return self + -other

    def __neg__(self) -> "RatU":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, RatU):
            return RatU(self.num * other.num, self.den * other.den,
                        self.m + other.m)
        c = _frac(other)
        if c == 0:
            return RatU.zero()
        # A scale keeps the normal form, which holds it in the numerator.
        out = RatU.__new__(RatU)
        out.num, out.den, out.m = self.num * c, self.den, self.m
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: "RatU") -> "RatU":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatU(self.num * other.den, self.den * other.num,
                    self.m - other.m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatU):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.m, self.num.coeffs, self.den.coeffs))

    def deriv_u(self) -> "RatU":
        """Derivative with respect to u.

        d/du [(u-1)^m N/D] = (u-1)^(m-1) [m N D + (u-1)(N'D - N D')] / D^2.
        """
        um1 = Poly([-1, 1])
        n, d = self.num, self.den
        core = self.m * (n * d) + um1 * (n.deriv() * d - n * d.deriv())
        return RatU(core, d * d, self.m - 1)

    def dx(self) -> "RatU":
        """Derivative in x of f(x) = g(sqrt(x)), this object being g."""
        return self.deriv_u() / RatU(Poly([0, 2]))

    def d2x(self) -> "RatU":
        """Second derivative in x of f(x) = g(sqrt(x)), this object being g.

        f''(x) = (u g''(u) - g'(u)) / (4 u^3).
        """
        g1 = self.deriv_u()
        g2 = g1.deriv_u()
        u_rat = RatU(U)
        return (u_rat * g2 - g1) / RatU(Poly([0, 0, 0, 4]))

    def positive_off_one(self) -> bool:
        """Whether the value is > 0 at every u > 0 other than u = 1.

        Proof: m is even and >= 0, num(1) and den(1) share a sign, and
        neither num nor den has a root in u > 0.
        """
        return (self.m >= 0 and self.m % 2 == 0 and not self.is_zero()
                and (self.num(1) > 0) == (self.den(1) > 0)
                and self.num.positive_roots() == 0
                and self.den.positive_roots() == 0)

    def value_exact(self, u: Scalar) -> Fraction:
        """Exact value at a rational u > 0 (u != 1 when m < 0)."""
        uf = _frac(u)
        base = self.num(uf) / self.den(uf)
        return (uf - 1) ** self.m * base

    def at_x(self, x_num: int, x_den: int = 1) -> Fraction:
        """Exact value at rational x whose square root is rational."""
        from math import isqrt

        rn, rd = isqrt(x_num), isqrt(x_den)
        if rn * rn != x_num or rd * rd != x_den:
            raise ValueError("x must be a perfect-square rational")
        return self.value_exact(Fraction(rn, rd))

    def limit_at_1(self) -> Fraction:
        """Limit as x -> 1, when finite (m >= 0)."""
        if self.m > 0 or self.is_zero():
            return Fraction(0)
        if self.m < 0:
            raise ZeroDivisionError("pole at x = 1")
        return self.num(1) / self.den(1)

    def eval_ctx(self, ctx: UContext):
        """Float value at the points of a shared ``UContext``."""
        val = self.num.eval_float(ctx.u) / self.den.eval_float(ctx.u)
        if self.m:
            val = val * ctx.um1_pow(self.m)
        return val

    def __call__(self, x):
        """Float evaluation at x > 0 (scalar or numpy array)."""
        val = self.eval_ctx(UContext(x))
        return val if isinstance(x, np.ndarray) else float(val)

    def ratio_limit_at_1(self, other: "RatU") -> Fraction:
        """Exact limit of self/other as x -> 1.

        Returns 0 when self vanishes faster; raises if the ratio diverges.
        """
        if self.is_zero():
            return Fraction(0)
        dm = self.m - other.m
        if dm > 0:
            return Fraction(0)
        if dm < 0:
            raise ZeroDivisionError("ratio diverges at x = 1")
        return (self.num(1) * other.den(1)) / (self.den(1) * other.num(1))

    def eval_mp(self, x, dps: int = 40):
        """High-precision evaluation at x > 0 using mpmath.

        Used by the convexity certificates, where plain float64 central
        differences drown in cancellation noise for steep generators.
        """
        import mpmath as mp

        with mp.workdps(dps):
            xv = mp.mpf(x)
            u = mp.sqrt(xv)
            um1 = (xv - 1) / (u + 1)

            def horner(poly):
                acc = mp.mpf(0)
                for c in reversed(poly.coeffs):
                    acc = acc * u + mp.mpf(c.numerator) / c.denominator
                return acc

            val = horner(self.num) / horner(self.den)
            if self.m:
                val = val * um1 ** self.m
            return val

    def __repr__(self):
        return f"RatU(m={self.m}, num={self.num!r}, den={self.den!r})"


# x^2 + 1 in u, S^2 = (x^2 + 1) / 2 and S' / S = x / (x^2 + 1).
_X2P1 = Poly([1, 0, 0, 0, 1])
_S2, _S_SLOPE = RatU(_X2P1, Poly([2])), RatU(X, _X2P1)


class RatS:
    """r + t*S with r, t ``RatU`` and S = sqrt((x^2 + 1) / 2).

    S is irrational over the rational functions of u, so a form is zero
    only when r and t are, and its sign follows from those of r, t and
    the norm t^2 S^2 - r^2.  Where r and t*S are proved to have opposite
    signs, floats evaluate the conjugate (t^2 S^2 - r^2) / (t S - r),
    whose numerator keeps the (u - 1)^m factor exact; elsewhere r + t*S.
    The choice is made once per form, on first use.
    """

    __slots__ = ("r", "t", "_plan")

    def __init__(self, r: RatU, t: RatU):
        self.r, self.t, self._plan = r, t, None

    def __add__(self, other) -> "RatS":
        if isinstance(other, RatU):
            return RatS(self.r + other, self.t)
        return RatS(self.r + other.r, self.t + other.t)

    __radd__ = __add__

    def __neg__(self) -> "RatS":
        return RatS(-self.r, -self.t)

    def __sub__(self, other) -> "RatS":
        return self + -other

    def __mul__(self, c) -> "RatS":
        return RatS(self.r * c, self.t * c)

    def is_zero(self) -> bool:
        return self.r.is_zero() and self.t.is_zero()

    def dx(self) -> "RatS":
        """Derivative in x: (r + t S)' = r' + (t' + t x / (x^2 + 1)) S."""
        return RatS(self.r.dx(), self.t.dx() + self.t * _S_SLOPE)

    def d2x(self) -> "RatS":
        return self.dx().dx()

    def limit_at_1(self) -> Fraction:
        return self.r.limit_at_1() + self.t.limit_at_1()   # S(1) = 1

    def _norm(self) -> RatU:
        return self.t * self.t * _S2 - self.r * self.r

    def positive_off_one(self) -> bool:
        """Whether the value is > 0 at every u > 0 other than u = 1.

        With t > 0 off x = 1, r > 0 or a positive norm suffices; with
        t < 0, r > 0 and a negative norm are both needed.
        """
        r, t = self.r, self.t
        if t.is_zero():
            return r.positive_off_one()
        if t.positive_off_one():
            return r.positive_off_one() or self._norm().positive_off_one()
        return ((-t).positive_off_one() and r.positive_off_one()
                and (-self._norm()).positive_off_one())

    def _float_plan(self):
        """(q, t, r) with value q / (t S + r), or t S + r if q is None.

        The conjugate needs |t| > 0 on x > 0 and |r| > 0 off x = 1.  A t
        of 1 and an r of 0 are dropped (None).
        """
        q, t, r = None, self.t, self.r
        for sign in (1, -1):
            at, ar = self.t * sign, self.r * -sign
            if at.m == 0 and at.positive_off_one() and ar.positive_off_one():
                q, t, r = self._norm() * sign, at, ar
                break
        return (q, None if (t.m, t.num, t.den) == (0, ONE, ONE) else t,
                None if r.is_zero() else r)

    def eval_ctx(self, ctx: UContext):
        """Float value at the points of a shared ``UContext``."""
        if self._plan is None:
            self._plan = self._float_plan()
        q, t, r = self._plan
        val = np.sqrt((ctx.x * ctx.x + 1.0) / 2.0)
        if t is not None:
            val = t.eval_ctx(ctx) * val
        if r is not None:
            val = val + r.eval_ctx(ctx)
        return val if q is None else q.eval_ctx(ctx) / val

    __call__ = RatU.__call__

    def eval_mp(self, x, dps: int = 40):
        """High-precision evaluation at x > 0 using mpmath."""
        import mpmath as mp

        with mp.workdps(dps):
            xv = mp.mpf(x)
            s = mp.sqrt((xv * xv + 1) / 2)
            return self.r.eval_mp(xv, dps) + self.t.eval_mp(xv, dps) * s


def solve_exact(columns: Sequence[RatU | RatS],
                target: RatU | RatS) -> list[Fraction] | None:
    """Write target as an exact linear combination of the given columns.

    Gaussian elimination over the rationals on the coefficient vectors of
    the cleared-denominator forms.  The r and t parts of r + t*S forms
    (a ``RatU`` is r + 0*S) are solved as one stacked system: S is
    irrational over the rational functions of u, so both parts must
    match.  When the system is underdetermined the free variables are
    pinned to zero, which makes the answer canonical.  Returns None when
    no exact combination exists.
    """
    parts = [(f.r, f.t) if isinstance(f, RatS) else (f, RatU.zero())
             for f in [*columns, target]]
    rows = (_coefficient_rows([r for r, _ in parts])
            + _coefficient_rows([t for _, t in parts]))
    ncols = len(columns)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [c / pv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        sol[col] = rows[i][ncols]
    return sol


def _coefficient_rows(forms: Sequence[RatU]) -> list[list[Fraction]]:
    """Rows u^i of the matrix whose columns are the forms' numerators.

    Each numerator is taken over the forms' least common denominator.
    """
    common = ONE
    for f in forms:
        d = f._as_pair()[1]
        q, r = (common * d).divmod_exact(_poly_gcd(common, d))
        assert r.is_zero()
        common = q
    vecs = []
    for f in forms:
        n, d = f._as_pair()
        q, r = common.divmod_exact(d)
        assert r.is_zero()
        vecs.append((n * q).coeffs)
    width = max(len(v) for v in vecs)
    return [[v[i] if i < len(v) else Fraction(0) for v in vecs]
            for i in range(width)]


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        _, rem = a.divmod_exact(b)
        a, b = b, rem
    if a.is_zero():
        return ONE
    prim, _ = a.content_free()
    return prim
