"""Exact decisions of the spectral-radius bounds RAD_PROD and RAD_SUM.

Given the radicals (monic squarefree charpolys) of a, b and ab or s = a + b,
``radius_product_bound`` decides rho(ab) <= rho(a)rho(b) and
``radius_sum_bound`` decides rho(s) <= rho(a) + rho(b), each with zero
tolerance. Each conclusion is decided by a cascade of exact steps, and the
first step that answers decides:

1. **Shortcuts.** A radical equal to x has rho = 0: if rho(a) or rho(b) is 0
   the product bound holds exactly when ab is nilpotent, and if both are 0
   the sum bound holds exactly when s is nilpotent.
2. **Spectral inclusion.** The composed product of the radicals of a and b
   has the roots alpha*beta, and their composed sum the roots alpha + beta.
   Each is built from power sums with Newton's identities (Bostan,
   Flajolet, Salvy, Schost, "Fast computation of special resultants",
   J. Symbolic Comput. 41, 2006). When the radical of ab (or s) divides it,
   every eigenvalue is such a product (or sum), and the bound holds.
3. **General comparison** (``_compare``). rho(w)^2 is the largest real root
   of M_w, whose roots are lam_i * conj(lam_j) over the roots of the
   radical and whose power sums are |s_k|^2. Each such root is isolated by
   a Sturm sequence (Basu, Pollack, Roy, *Algorithms in Real Algebraic
   Geometry*) and refined by halving until C = rho(ab)^2 lies strictly on
   one side of A*B = rho(a)^2 rho(b)^2, or S = rho(s)^2 on one side of
   (sqrt(A) + sqrt(B))^2. Refinement cannot separate a tie, so once it has
   stalled a tie polynomial decides: the composed product of M_a and M_b
   for the product, and G(t) = prod((t - x - y)^2 - 4xy) over the roots x
   of M_a and y of M_b for the sum. Every root of either has modulus at
   most the bound, so if C (or S) is one of its roots the bound holds; if
   not, the two numbers differ and refinement goes on until they separate.

Everything runs on integers. A radical with denominator D is scaled to the
monic polynomial with Gaussian-integer coefficients whose roots are D
times its roots, so power sums are Gaussian integers and Newton's inverse
step divides exactly by k, which is checked. A bound that holds has the
gap 0.0; one that fails reports rho(ab) - rho(a)rho(b) or rho(s) - rho(a)
- rho(b) as a float computed from radii correctly rounded off their
certified enclosures, floored at 0.0.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, sqrt

__all__ = ["radius_product_bound", "radius_sum_bound"]

# refinement has stalled, and the tie polynomial is built, once every
# enclosure is narrower than 2^-_STALL times max(1, its value)
_STALL = 64

# halvings after which a float is read off an enclosure whose endpoints
# still round apart (a root on a rounding boundary)
_FLOAT_STEPS = 4096


def radius_product_bound(ra, rb, rab):
    """(holds, gap) for rho(ab) <= rho(a)rho(b), from the radicals of a, b and ab."""
    if _is_x(ra) or _is_x(rb):
        return _zero_bound(rab)
    return _bound(ra, rb, rab, product=True)


def radius_sum_bound(ra, rb, rs):
    """(holds, gap) for rho(a+b) <= rho(a) + rho(b), from the radicals of a, b and a+b."""
    if _is_x(ra) and _is_x(rb):
        return _zero_bound(rs)
    return _bound(ra, rb, rs, product=False)


def _zero_bound(rw):
    """(holds, gap) for rho(w) <= 0, from the radical of w."""
    return (True, 0.0) if _is_x(rw) else (False, sqrt(_largest_root(rw).to_float()))


def _bound(ra, rb, rw, product):
    """Steps 2 and 3 for w = ab if product, else w = a + b."""
    f = lcm(ra._den, rb._den, rw._den)
    pa, pb = _scaled(ra, f), _scaled(rb, f)
    n = pa.degree * pb.degree
    (ar, ai), (br, bi) = pa.power_sums(n), pb.power_sums(n)
    if product:  # the power sums of the f^2 alpha beta
        sr = [xr * yr - xi * yi for xr, xi, yr, yi in zip(ar, ai, br, bi)]
        si = [xr * yi + xi * yr for xr, xi, yr, yi in zip(ar, ai, br, bi)]
    else:  # of the f (alpha + beta), by the binomial theorem
        sr, si = [0] * (n + 1), [0] * (n + 1)
        for k in range(n + 1):
            for j in range(k + 1):
                c = comb(k, j)
                xr, xi, yr, yi = ar[j], ai[j], br[k - j], bi[k - j]
                sr[k] += c * (xr * yr - xi * yi)
                si[k] += c * (xr * yi + xi * yr)
    composed = _GaussPoly.from_power_sums(sr, si)
    if composed.divisible_by(_scaled(rw, f * f if product else f)):
        return True, 0.0
    return _compare(_largest_root(rw), _largest_root(ra), _largest_root(rb), product)


def _is_x(p):
    """The radical is x: the word is nilpotent and its spectral radius 0."""
    return p._re == (0, p._den) and not any(p._im)


# -- Gaussian-integer polynomials ------------------------------------------------


class _GaussPoly:
    """Monic polynomial with Gaussian-integer coefficients, ascending lists."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    @property
    def degree(self):
        return len(self.re) - 1

    def power_sums(self, n):
        """Lists (re, im) of the power sums s_0..s_n of the roots (Newton)."""
        re, im, m = self.re, self.im, self.degree
        sr, si = [m] + [0] * n, [0] * (n + 1)
        for k in range(1, n + 1):
            xr, xi = (k * re[m - k], k * im[m - k]) if k <= m else (0, 0)
            for i in range(1, min(k - 1, m) + 1):
                cr, ci, yr, yi = re[m - i], im[m - i], sr[k - i], si[k - i]
                xr += cr * yr - ci * yi
                xi += cr * yi + ci * yr
            sr[k], si[k] = -xr, -xi
        return sr, si

    @classmethod
    def from_power_sums(cls, sr, si):
        """The monic polynomial of degree sr[0] whose roots have the power
        sums (sr, si); each step of Newton's inverse divides exactly by k."""
        n = sr[0]
        re, im = [0] * n + [1], [0] * (n + 1)
        for k in range(1, n + 1):
            xr, xi = sr[k], si[k]
            for i in range(1, k):
                cr, ci, yr, yi = re[n - i], im[n - i], sr[k - i], si[k - i]
                xr += cr * yr - ci * yi
                xi += cr * yi + ci * yr
            (qr, rr), (qi, ri) = divmod(-xr, k), divmod(-xi, k)
            if rr or ri:
                raise ArithmeticError(f"power sums of no integral polynomial (k={k})")
            re[n - k], im[n - k] = qr, qi
        return cls(re, im)

    def divisible_by(self, d):
        """True when the monic d divides self."""
        rr, ri = list(self.re), list(self.im)
        m = d.degree
        for k in range(len(rr) - 1, m - 1, -1):
            cr, ci = rr[k], ri[k]
            if cr or ci:
                for j in range(m + 1):
                    rr[k - m + j] -= cr * d.re[j] - ci * d.im[j]
                    ri[k - m + j] -= cr * d.im[j] + ci * d.re[j]
        return not (any(rr[:m]) or any(ri[:m]))


def _scaled(p, f):
    """f^m p(x/f) for the monic ExactPoly p of degree m, whose denominator
    divides f: its roots are f times those of p, its coefficients Gaussian
    integers."""
    den, m = p._den, p.degree
    q = f // den
    re = [x * q * f ** (m - k - 1) for k, x in enumerate(p._re[:-1])]
    im = [y * q * f ** (m - k - 1) for k, y in enumerate(p._im[:-1])]
    return _GaussPoly(re + [1], im + [0])


# -- real roots --------------------------------------------------------------------
# Real integer polynomials are ascending lists of ints.


def _primitive(p):
    """p over the positive gcd of its coefficients."""
    g = gcd(*p)
    return [c // g for c in p]


def _neg_prem(a, b):
    """Minus a positive multiple of the remainder of a by b, primitive (or [])."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    sign, scale = (1, lb) if lb > 0 else (-1, -lb)
    while len(r) - 1 >= db and r:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [scale * x for x in r]
        for j, c in enumerate(b):
            r[shift + j] -= sign * lr * c
        while r and not r[-1]:
            r.pop()
    return _primitive([-x for x in r]) if r else []


def _chain(a, b):
    """a, b and the negated primitive pseudo-remainders down to the last
    nonzero one: a Sturm sequence when b = a', and its last element is
    gcd(a, b) up to a constant."""
    chain = [a, b]
    while True:
        r = _neg_prem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append(r)


def _derivative(p):
    return [k * c for k, c in enumerate(p)][1:]


def _sign_at(p, num, den):
    """The sign of p(num/den), den > 0, from its homogenized integer value."""
    acc, power = 0, 1
    for c in reversed(p):  # acc = den^deg(p) * p(num/den) at the end
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def _variations(chain, x):
    """Sign changes of the chain at x (zeros dropped)."""
    count, last = 0, 0
    for p in chain:
        s = _sign_at(p, x.numerator, x.denominator)
        if s:
            if last and s != last:
                count += 1
            last = s
    return count


def _divmod_monic(p, d):
    """(quotient, remainder) of integer polynomials for a monic d; the
    remainder has its trailing zeros stripped."""
    r, m = list(p), len(d) - 1
    q = [0] * max(0, len(p) - m)
    for k in range(len(p) - 1, m - 1, -1):
        c = q[k - m] = r[k]
        if c:
            for j in range(m + 1):
                r[k - m + j] -= c * d[j]
    r = r[:m]
    while r and not r[-1]:
        r.pop()
    return q, r


def _sturm(p):
    """(s, its Sturm sequence) for s the monic squarefree part of the monic
    integer polynomial p."""
    chain = _chain(p, _derivative(p))
    g = chain[-1]
    if len(g) == 1:
        return p, chain
    # g divides the monic p, so by Gauss's lemma the primitive g is +-monic
    s, r = _divmod_monic(p, g if g[-1] > 0 else [-c for c in g])
    if r:
        raise ArithmeticError("gcd(p, p') does not divide p")
    return s, _chain(s, _derivative(s))


def _rescaled(p, k):
    """k^n p(x/k) for p of degree n: the roots of p times k."""
    n = len(p) - 1
    return [c * k ** (n - i) for i, c in enumerate(p)]


class _Root:
    """The largest real root of a monic integer polynomial over a positive
    integer ``scale``, known to lie in (lo, hi]/scale: a real algebraic
    number refined by halving its enclosure."""

    __slots__ = ("poly", "scale", "lo", "hi")

    def __init__(self, p, scale):
        self.scale = scale
        if p == [0, 1]:
            self.poly, self.lo, self.hi = p, Fraction(0), Fraction(0)
            return
        p, chain = _sturm(p)
        self.poly = p
        top = sum(
            1 for x, y in zip(chain, chain[1:]) if (x[-1] > 0) != (y[-1] > 0)
        )  # sign changes at +infinity
        # every root has a modulus below Fujiwara's bound 2 max |c_(n-k)|^(1/k),
        # rounded up to a power of 2 so that halving meets every dyadic root
        n = len(p) - 1
        e = 1 + max(-(-abs(c).bit_length() // (n - k)) for k, c in enumerate(p[:-1]))
        lo, hi = Fraction(-(1 << e)), Fraction(1 << e)
        while _variations(chain, lo) - top > 1:
            mid = (lo + hi) / 2
            if _variations(chain, mid) > top:
                lo = mid
            else:
                hi = mid
        self.lo, self.hi = lo, hi

    def refine(self):
        """Halve the enclosure; p is positive above the root and, on the
        isolating interval, negative below it."""
        lo, hi = self.lo, self.hi
        if lo == hi:
            return
        mid = (lo + hi) / 2
        s = _sign_at(self.poly, mid.numerator, mid.denominator)
        if s == 0:
            self.lo = self.hi = mid
        elif s > 0:
            self.hi = mid
        else:
            self.lo = mid

    def enclosure(self):
        """(lo, hi) with lo <= root <= hi; the root is a squared modulus, so lo >= 0."""
        return max(self.lo, 0) / self.scale, self.hi / self.scale

    def stalled(self):
        """The enclosure is narrower than 2^-_STALL times max(1, root)."""
        lo, hi = self.enclosure()
        return (hi - lo) * (1 << _STALL) <= max(hi, 1)

    def is_root_of(self, q, q_scale):
        """True when the root is also a root of the monic integer polynomial
        q over the scale q_scale."""
        common = lcm(self.scale, q_scale)
        k = common // self.scale
        p, q = _rescaled(self.poly, k), _rescaled(q, common // q_scale)
        lo, hi = self.lo * k, self.hi * k
        if lo == hi:
            return _sign_at(q, lo.numerator, lo.denominator) == 0
        r = _divmod_monic(q, p)[1]
        if not r:
            return True
        g = _chain(p, r)[-1]
        if len(g) == 1:
            return False
        # g divides the squarefree p, so it is squarefree and its Sturm
        # sequence counts its roots in (lo, hi], where p has only this one
        sturm = _chain(g, _derivative(g))
        return _variations(sturm, lo) > _variations(sturm, hi)

    def to_float(self):
        """The root as a double, read off an enclosure whose ends round alike."""
        for _ in range(_FLOAT_STEPS):
            lo, hi = self.enclosure()
            if float(lo) == float(hi):
                break
            self.refine()
        return float(self.enclosure()[1])


def _real_power_sums(p, n):
    """Power sums s_0..s_n of the roots of the monic integer polynomial p."""
    return _GaussPoly(p, [0] * len(p)).power_sums(n)[0]


def _from_real_power_sums(s):
    return _GaussPoly.from_power_sums(s, [0] * len(s)).re


def _largest_root(radical):
    """rho^2 for the radical p as a _Root: the largest real root of M, whose
    roots are D^2 lam_i conj(lam_j) for the roots lam of p and D its
    denominator, over the scale D^2."""
    f = radical._den
    g = _scaled(radical, f)
    n = g.degree * g.degree
    sr, si = g.power_sums(n)
    return _Root(_from_real_power_sums([x * x + y * y for x, y in zip(sr, si)]), f * f)


def _compare(c, a, b, product):
    """(holds, gap) for C <= A*B if product, else S <= (sqrt(A) + sqrt(B))^2,
    with C (or S), A and B the squared radii as _Roots."""
    tie_checked = False
    while True:
        cl, ch = c.enclosure()
        al, ah = a.enclosure()
        bl, bh = b.enclosure()
        if product:
            below, above = ch <= al * bl, cl > ah * bh
        else:
            d_lo, d_hi = ch - al - bl, cl - ah - bh
            below = d_lo <= 0 or d_lo * d_lo <= 4 * al * bl
            above = d_hi > 0 and d_hi * d_hi > 4 * ah * bh
        if below:
            return True, 0.0
        if above:
            ra, rb = sqrt(a.to_float()), sqrt(b.to_float())
            bound = ra * rb if product else ra + rb
            return False, max(0.0, sqrt(c.to_float()) - bound)
        if not tie_checked and all(r.stalled() for r in (c, a, b)):
            tie_checked = True
            if c.is_root_of(*_tie_polynomial(a, b, product)):
                return True, 0.0
        for r in (c, a, b):
            r.refine()


def _tie_polynomial(a, b, product):
    """(polynomial, scale): the composed product of the polynomials of the
    _Roots a and b, or G(t) = prod((t - x - y)^2 - 4xy) over their roots x
    and y, from power sums."""
    pa, pb = a.poly, b.poly
    n = (len(pa) - 1) * (len(pb) - 1)
    if product:
        sa, sb = _real_power_sums(pa, n), _real_power_sums(pb, n)
        return _from_real_power_sums([x * y for x, y in zip(sa, sb)]), a.scale * b.scale
    scale = lcm(a.scale, b.scale)
    pa, pb = _rescaled(pa, scale // a.scale), _rescaled(pb, scale // b.scale)
    # the power sums of G: sum over x, y of (sqrt x + sqrt y)^2k + (sqrt x - sqrt y)^2k
    sa, sb = _real_power_sums(pa, 2 * n), _real_power_sums(pb, 2 * n)
    s = [2 * n] + [
        2 * sum(comb(2 * k, 2 * j) * sa[k - j] * sb[j] for j in range(k + 1))
        for k in range(1, 2 * n + 1)
    ]
    return _from_real_power_sums(s), scale
