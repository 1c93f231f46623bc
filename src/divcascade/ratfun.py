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

Polynomial coefficients are Python ints.  A ``RatU`` holds primitive
integer polynomials and carries its one rational factor as a single
``Fraction`` scale, so the exact algebra (sums, products, Polya sign
certificates) runs on integers.

Float evaluation is one evaluator written over operators: Horner's rule
on the deflated parts with augmented ``*=`` and ``+=``, which work in
place on a numpy array and rebind a Python float.  It runs a plan fixed
once per coefficient list (``_plan``), which skips the additions of a
zero coefficient and so has the bits of the textbook sum in fewer array
passes, and a denominator of 1 is not divided by.  Each numerator
coefficient enters it as (c * p) / q for the scale p / q, which int
division rounds correctly.  It reads its u = sqrt(x), u - 1, (u - 1)^m
and S from a ``UContext`` that every generator evaluated at the same
points can share.  (u - 1)^m is formed by binary powering, so every
value comes from +, -, *, / and sqrt alone, which IEEE 754 rounds the
same way for a float and for any SIMD width of an array: a scalar has
the bits it has inside any array, on every CPU.  A scalar x is evaluated
in Python floats and never loads numpy; numpy is imported only in the
branches an array takes, by which time it is loaded.  An augmented
operator works in place only on an array the evaluator made itself, so
generators can share a context's values.  The same code runs on a value
that records each ufunc call instead of computing it (``UContext``
keeps such an x as given): that is how a sampled scan compiles its
claims into one straight-line program (``analysis``).  The same ufuncs
run on the same operands either way, so the bits do not depend on it.

``eval_decimal`` evaluates a form in the standard library's ``decimal``
at a chosen precision, for the 40-digit differences that spot-check
each exact second derivative.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from math import copysign, gcd, inf, isqrt, lcm, nan, sqrt
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

# The largest N Poly.polya_degree tries.  The largest N met in this package
# is 33, for discriminations.A7_poly(8); catalog and family f'' need <= 11,
# and a default audit's proof sums (degree <= 84) need N <= 3.
POLYA_CAP = 64

__all__ = ["Poly", "RatU", "RatS", "UContext", "U", "ONE", "X", "solve_exact"]


class Poly:
    """Polynomial in one variable with exact coefficients.

    Coefficients are stored in ascending order: ``Poly([a0, a1, a2])``
    is a0 + a1*u + a2*u**2.  They stay ints when built from ints, which
    every polynomial of a ``RatU`` is; a ``Fraction`` is kept as given.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Scalar, ...] = tuple(cs)

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
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def deriv(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, k: int) -> "Poly":
        """Multiply by u**k."""
        return Poly([0] * k + list(self.coeffs))

    def __call__(self, value: Scalar) -> Scalar:
        """Exact Horner evaluation at an int or Fraction point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def polya_degree(self) -> int | None:
        """Smallest N <= POLYA_CAP proving no root in u > 0, else None.

        N certifies when (1 + u)**N times the polynomial, u**k stripped,
        has no two coefficients of opposite sign, hence no root in u > 0.
        Some N certifies exactly when there is no such root (Polya 1928);
        one that needs an N above the cap is reported unproved.
        """
        if self.is_zero():
            return None
        k = next(i for i, c in enumerate(self.coeffs) if c != 0)
        sign = 1 if self.coeffs[-1] > 0 else -1
        cs = [c * sign for c in self.coeffs[k:]]
        if cs[0] < 0:       # p(0+) and p(+inf) differ in sign: a root
            return None
        for n in range(POLYA_CAP + 1):
            if min(cs) >= 0:
                return n
            cs = [a + b for a, b in zip(cs + [0], [0] + cs)]
        return None

    def deflate(self, root: Scalar = 1) -> tuple["Poly", int]:
        """Split off the highest power of (u - root) dividing this polynomial.

        Returns (quotient, multiplicity) with quotient(root) != 0.
        """
        if self.is_zero():
            return self, 0
        cs, m = self.coeffs, 0
        while True:     # synthetic division by u - root; p(root) comes last
            sums = list(accumulate(reversed(cs), lambda s, c: s * root + c))
            if sums[-1] != 0:
                return Poly(cs), m
            cs, m = sums[-2::-1], m + 1

    def content_free(self) -> tuple["Poly", Fraction]:
        """(primitive integer polynomial with a positive lead, scale)."""
        if self.is_zero():
            return self, Fraction(1)
        den = lcm(*[c.denominator for c in self.coeffs])
        ints = [int(c * den) for c in self.coeffs]
        g = gcd(*ints) * (-1 if ints[-1] < 0 else 1)
        return Poly([c // g for c in ints]), Fraction(g, den)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def _plan(coeffs: Sequence[float]) -> tuple[float, tuple]:
    """The Horner plan of float coefficients (ascending): (lead, steps).

    Horner's rule starts from the leading coefficient and then, for each
    coefficient below it, multiplies by u and adds the coefficient.  The
    plan starts from u * lead instead, the first product, and lists the
    rest as steps: None multiplies by u, a float adds itself.  It drops
    every addition of 0.0 but the constant term's.  x + 0.0 is x except
    that it turns -0.0 into +0.0, and a sum that differs from Horner's
    only in the sign of a zero stays so through products by u, until an
    addition erases the sign; the constant term's addition, always kept,
    erases the last.  So the plan has the bits of textbook Horner
    (Higham, Accuracy and Stability of Numerical Algorithms, Sec 5.1) at
    every u, -0.0, 0, inf and NaN included.  No coefficients is the zero
    polynomial, and one has no steps.
    """
    if not coeffs:
        return 0.0, ()
    top, steps = len(coeffs) - 2, []
    for k in range(top, -1, -1):
        if k < top:
            steps.append(None)
        if coeffs[k] != 0.0 or k == 0:
            steps.append(coeffs[k])
    return coeffs[-1], tuple(steps)


def _horner(plan: tuple[float, tuple], u):
    """Horner's rule by a ``_plan`` at a float or an array.

    The first product u * lead makes the sum, a new array for an array u,
    which the rest works on in place; with a lead of 1 that product is u
    itself, so the sum starts from u + c, or from u * u when the next
    coefficient is a dropped 0.0.  A degree-d polynomial then takes 2d
    array operations, fewer for each zero coefficient: u^4 takes 4 and
    1 + u^2 takes 2.
    """
    lead, steps = plan
    if not steps:
        return _full(u, lead)
    if lead != 1.0:
        acc, rest = u * lead, steps
    elif steps[0] is None:
        acc, rest = u * u, steps[1:]
    else:
        acc, rest = u + steps[0], steps[1:]
    for c in rest:
        if c is None:
            acc *= u
        else:
            acc += c
    return acc


def _full(like, value: float):
    """value itself for a float; for an array, a new array like it
    filled with value.  A value that records its ufunc calls records
    the fill as one step, +value into a new value's register."""
    if isinstance(like, float):
        return value
    import numpy as np
    if not isinstance(like, np.ndarray):
        return like.__array_ufunc__(np.positive, "__call__", value)
    return np.full_like(like, value)


def _sqrt(v):
    """math.sqrt for a float (NaN below zero, as numpy); np.sqrt else."""
    if isinstance(v, float):
        return sqrt(v) if v >= 0.0 else nan
    import numpy as np
    return np.sqrt(v)


def _div(a, b):
    """a / b, in place in a if it is an array the caller made; for a
    float zero b, the IEEE quotient where / would raise.

    An array quotient is numpy's, which warns where b is zero.
    """
    if isinstance(b, float):
        if b != 0.0:
            return a / b
        if a != a or a == 0.0:
            return nan
        return copysign(inf, a) * copysign(1.0, b)
    a /= b          # a float a is divided into a new array
    return a


def _reciprocal(p, out=None):
    """1 / p for an array, with no warning where p is zero: for m < 0,
    (u - 1)^m has a pole at x = 1.  A value that records its ufunc calls
    records this call as one step, whose error state is its own."""
    import numpy as np
    if not isinstance(p, np.ndarray):
        return p.__array_ufunc__(_reciprocal, "__call__", p)
    with np.errstate(divide="ignore"):
        return np.divide(1.0, p, out=out)


def _power(v, m: int):
    """v ** m for m != 0, by left-to-right binary powering.

    Only products: an array power is a new array, where the first square
    v * v lands (for |m| = 1, a copy of v), and which is then squared
    and multiplied in place, bit by bit of |m| after the leading one.
    Each product is correctly rounded, so for m > 0 the relative error is
    at most gamma_(m-1) = (m-1)u / (1 - (m-1)u) with u = 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, Sec 3.1): about
    1.5e-14 at m = 132.  A negative m takes the reciprocal of v ** |m|,
    one rounding more.
    """
    bits = bin(abs(m))[3:]
    p = v * (v if bits else 1.0)
    for k, bit in enumerate(bits):
        if k:
            p *= p
        if bit == "1":
            p *= v
    if m > 0:
        return p
    if isinstance(p, float):
        return _div(1.0, p)
    return _reciprocal(p, p)


U = Poly([0, 1])
ONE = Poly([1])
X = Poly([0, 0, 1])
_UM1 = Poly([-1, 1])


class UContext:
    """The float quantities every generator evaluated at one x shares.

    Holds x, u = sqrt(x), um1 = (x - 1) / (u + 1) (that is u - 1, free of
    the cancellation near x = 1), a memo of um1 ** m per exponent m, so
    generators with the same m pay for the power once, and a memo of
    S = sqrt((x^2 + 1) / 2), which the root-mean-square mean and its six
    differences share (``rms``).  A scalar x (a number, a numpy scalar
    or a 0-d array) is held as a Python float, and so is every value
    computed from it; an array of x is held as float64 (the array itself
    when it is one), so an integer array cannot wrap in x * x.  The memos
    make a context stateful: build one per point set, and share it with
    no other thread.  Its readers never write into a value it holds.

    An x that is no numpy array but takes numpy's ufunc calls itself
    (``__array_ufunc__``) is kept as given: a scan's compiler passes one
    that records each call as a step of its program.
    """

    __slots__ = ("x", "u", "um1", "_powers", "_s")

    def __init__(self, x):
        if getattr(x, "ndim", 0):
            import numpy as np
            if isinstance(x, np.ndarray) or not hasattr(x, "__array_ufunc__"):
                x = np.asarray(x, dtype=np.float64)
            self.x = x
        else:
            self.x = float(x)
        self.u = _sqrt(self.x)
        um1 = self.x - 1.0
        um1 /= self.u + 1.0
        self.um1 = um1
        self._powers: dict[int, object] = {}
        self._s = None

    def um1_pow(self, m: int):
        """um1 ** m (m != 0), computed on first request and then reused.

        Binary powering (``_power``) from products alone: within
        gamma_(m-1) of the exact power, and a scalar's power has the bits
        of the array's at the same x.
        """
        p = self._powers.get(m)
        if p is None:
            p = self._powers[m] = _power(self.um1, m)
        return p

    def rms(self):
        """S = sqrt((x^2 + 1) / 2), computed on first request and then
        reused."""
        if self._s is None:
            s = self.x * self.x
            s += 1.0
            s /= 2.0
            self._s = _sqrt(s)
        return self._s


class RatU:
    """Rational function of u = sqrt(x) in deflated form.

    The value at u is ``scale * (u - 1)**m * num(u) / den(u)`` where num
    and den are primitive integer polynomials with positive leading
    coefficients, num(1) != 0 and den(1) != 0.  Near x = 1 the
    (u - 1)**m factor is computed as ((x - 1) / (u + 1))**m, which costs
    one subtraction of well-separated quantities instead of m
    catastrophic ones.  ``eval_ctx`` is the one float evaluator;
    ``__call__`` runs it on a context of its own.
    """

    __slots__ = ("m", "num", "den", "scale", "_floats")

    def __init__(self, num: Poly, den: Poly = ONE, m: int = 0,
                 scale: Scalar = 1):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, dm = num.deflate()
        den, em = den.deflate()
        if num.is_zero() or scale == 0:
            self._set(Poly([]), ONE, 0, Fraction(0))
        else:
            num, ns = num.content_free()
            den, ds = den.content_free()
            self._set(num, den, m + dm - em, scale * ns / ds)

    def _set(self, num: Poly, den: Poly, m: int, scale: Fraction) -> "RatU":
        self.num, self.den, self.m, self.scale = num, den, m, scale
        self._floats = None
        return self

    @classmethod
    def zero(cls) -> "RatU":
        return cls(Poly([]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _as_pair(self) -> tuple[Poly, Poly]:
        """Undeflated (numerator, denominator), both integer polynomials."""
        n, d = self.num * self.scale.numerator, self.den * self.scale.denominator
        um = _UM1 ** abs(self.m)
        return (n * um, d) if self.m >= 0 else (n, d * um)

    def __add__(self, other: "RatU") -> "RatU":
        """The sum over den * other.den, for forms and proofs alike; the
        (u-1)^min(m) factor stays out, so deflation need not divide it."""
        if not isinstance(other, RatU):
            return NotImplemented
        k = min(self.m, other.m)
        q = lcm(self.scale.denominator, other.scale.denominator)
        an = self.num * _UM1 ** (self.m - k) * int(self.scale * q)
        bn = other.num * _UM1 ** (other.m - k) * int(other.scale * q)
        return RatU(an * other.den + bn * self.den, self.den * other.den, k,
                    Fraction(1, q))

    def __sub__(self, other: "RatU") -> "RatU":
        return self + -other

    def __neg__(self) -> "RatU":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, RatU):
            return RatU(self.num * other.num, self.den * other.den,
                        self.m + other.m, self.scale * other.scale)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            return RatU.zero()
        return RatU.__new__(RatU)._set(self.num, self.den, self.m,
                                       self.scale * other)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatU") -> "RatU":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatU(self.num * other.den, self.den * other.num,
                    self.m - other.m, self.scale / other.scale)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatU):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # m and the leading value at u = 1 are the same for equal values,
        # whose forms need not share their num and den.
        return hash((self.m, self.scale * Fraction(self.num(1), self.den(1))))

    def deriv_u(self) -> "RatU":
        """Derivative with respect to u.

        d/du [(u-1)^m N/D] = (u-1)^(m-1) [m N D + (u-1)(N'D - N D')] / D^2.
        """
        n, d = self.num, self.den
        core = self.m * (n * d) + _UM1 * (n.deriv() * d - n * d.deriv())
        return RatU(core, d * d, self.m - 1, self.scale)

    def dx(self) -> "RatU":
        """Derivative in x of f(x) = g(sqrt(x)), this object being g."""
        return self.deriv_u() / RatU(Poly([0, 2]))

    def d2x(self) -> "RatU":
        """Second derivative in x of f(x) = g(sqrt(x)), this object being g.

        f''(x) = (u g''(u) - g'(u)) / (4 u^3).
        """
        g1 = self.deriv_u()
        g2 = g1.deriv_u()
        return (RatU(U) * g2 - g1) / RatU(Poly([0, 0, 0, 4]))

    def positive_off_one(self) -> bool:
        """Whether the value is > 0 at every u > 0 other than u = 1.

        Proof: m is even and >= 0, scale * num(1) * den(1) > 0, and a
        Polya certificate (``Poly.polya_degree``) for each of num and den.
        """
        return (self.m >= 0 and self.m % 2 == 0
                and self.scale * self.num(1) * self.den(1) > 0
                and self.num.polya_degree() is not None
                and self.den.polya_degree() is not None)

    def value_exact(self, u: Scalar) -> Fraction:
        """Exact value at a rational u > 0 (u != 1 when m < 0)."""
        uf = Fraction(u)
        return self.scale * (uf - 1) ** self.m * self.num(uf) / self.den(uf)

    def at_x(self, x_num: int, x_den: int = 1) -> Fraction:
        """Exact value at rational x whose square root is rational."""
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
        return self.scale * Fraction(self.num(1), self.den(1))

    def eval_ctx(self, ctx: UContext):
        """Float value at the points of a shared ``UContext``: a float
        on a scalar context, else a new array."""
        if self._floats is None:
            p, q = self.scale.numerator, self.scale.denominator
            self._floats = (_plan([c * p / q for c in self.num.coeffs]),
                            _plan([float(c) for c in self.den.coeffs]))
        fn, fd = self._floats
        if fd == (1.0, ()):         # v / 1.0 is v, bit for bit
            val = _horner(fn, ctx.u)
        else:                       # a constant c divides as a float
            den = _horner(fd, ctx.u)
            val = _div(_horner(fn, ctx.u) if fn[1] else fn[0], den)
        if self.m:
            val *= ctx.um1_pow(self.m)
        return val

    def __call__(self, x):
        """Float evaluation at x > 0: a float for a scalar, else an array."""
        return self.eval_ctx(UContext(x))

    def ratio_limit_at_1(self, other: "RatU") -> Fraction:
        """Exact limit of self/other as x -> 1.

        Returns 0 when self vanishes faster; raises if the ratio diverges.
        """
        return (self / other).limit_at_1()

    def eval_decimal(self, x: Decimal, ctx: Context) -> Decimal:
        """Value at a ``Decimal`` x > 0 in the precision of ``ctx``.

        Used by the convexity spot check, where float64 central
        differences drown in cancellation noise for steep generators.
        Each numerator coefficient is the exact scale * c = (c * p) / q,
        rounded once; (u - 1)^m is formed as ((x - 1) / (u + 1))^m.
        """
        with localcontext(ctx):
            u = x.sqrt()

            def horner(coeffs, p=1, q=1):
                acc = Decimal(0)
                for c in reversed(coeffs):
                    acc = acc * u + Decimal(c * p) / q
                return acc

            val = (horner(self.num.coeffs, self.scale.numerator,
                          self.scale.denominator)
                   / horner(self.den.coeffs))
            if self.m:
                val = val * ((x - 1) / (u + 1)) ** self.m
            return val

    def __repr__(self):
        return (f"RatU(m={self.m}, scale={self.scale}, num={self.num!r}, "
                f"den={self.den!r})")


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
        one = (t.m, t.scale, t.num, t.den) == (0, 1, ONE, ONE)
        return q, None if one else t, None if r.is_zero() else r

    def eval_ctx(self, ctx: UContext):
        """Float value at the points of a shared ``UContext``, as
        ``RatU.eval_ctx``'s.  S is the context's (``UContext.rms``),
        formed once for every form at those points and never written
        into: t S lands in t's array and S alone is copied."""
        if self._plan is None:
            self._plan = self._float_plan()
        q, t, r = self._plan
        s, val = ctx.rms(), None
        if t is not None:
            val = t.eval_ctx(ctx)
            val *= s
        if r is not None:
            rv = r.eval_ctx(ctx)
            if val is None:
                val = s + rv
            else:
                val += rv
        if val is None:
            val = s * 1.0
        if q is None:
            return val
        return _div(q.eval_ctx(ctx), val)

    __call__ = RatU.__call__

    def eval_decimal(self, x: Decimal, ctx: Context) -> Decimal:
        """Value r + t*S at a ``Decimal`` x > 0 in the precision of ctx."""
        with localcontext(ctx):
            s = ((x * x + 1) / 2).sqrt()
            return self.r.eval_decimal(x, ctx) + self.t.eval_decimal(x, ctx) * s


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
        pv = Fraction(rows[r][col])
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


def _coefficient_rows(forms: Sequence[RatU]) -> list[list[int]]:
    """Rows u^i of the matrix whose columns are the forms' numerators.

    Each numerator is taken over the product of the forms' denominators.
    """
    pairs = [f._as_pair() for f in forms]
    vecs = []
    for i, (n, _) in enumerate(pairs):
        for _, d in pairs[:i] + pairs[i + 1:]:
            n = n * d
        vecs.append(n.coeffs)
    width = max(len(v) for v in vecs)
    return [[v[i] if i < len(v) else 0 for v in vecs] for i in range(width)]

