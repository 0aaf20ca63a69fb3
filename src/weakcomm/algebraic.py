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
   Geometry*), the kernel's primitive remainder sequence ``poly_chain`` of
   the squarefree part of M_w and its derivative; the sequence of M_w and
   its derivative gives that squarefree part. The root is then refined by
   halving until C = rho(ab)^2 lies strictly on one side of A*B = rho(a)^2
   rho(b)^2, or S = rho(s)^2 on one side of (sqrt(A) + sqrt(B))^2.
   Refinement cannot separate a tie, so once it has stalled a tie
   polynomial decides: the composed product of M_a and M_b for the
   product, and G(t) = prod((t - x - y)^2 - 4xy) over the roots x of M_a
   and y of M_b for the sum. Every root of either has modulus at most the
   bound, so if C (or S) is one of its roots the bound holds; if not, the
   two numbers differ and refinement goes on until they separate.

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
from math import comb, lcm, sqrt

from . import _kernel_py as kernel

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
    pa, pb = _integral(ra, f), _integral(rb, f)
    n = (len(pa[0]) - 1) * (len(pb[0]) - 1)
    (ar, ai), (br, bi) = _power_sums(*pa, n), _power_sums(*pb, n)
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
    # the scaled radical of w is monic, so it divides exactly when the
    # pseudo-remainder is zero
    wr, wi = _integral(rw, f * f if product else f)
    if not kernel.poly_divmod(*_from_power_sums(sr, si), wr, wi)[3]:
        return True, 0.0
    return _compare(_largest_root(rw), _largest_root(ra), _largest_root(rb), product)


def _is_x(p):
    """The radical is x: the word is nilpotent and its spectral radius 0."""
    return p._re == (0, p._den) and not any(p._im)


# -- Gaussian-integer polynomials ------------------------------------------------
# Ascending lists (re, im) of ints; the polynomials here are monic.


def _power_sums(re, im, n):
    """Lists (re, im) of the power sums s_0..s_n of the roots (Newton)."""
    m = len(re) - 1
    sr, si = [m] + [0] * n, [0] * (n + 1)
    for k in range(1, n + 1):
        xr, xi = (k * re[m - k], k * im[m - k]) if k <= m else (0, 0)
        for i in range(1, min(k - 1, m) + 1):
            cr, ci, yr, yi = re[m - i], im[m - i], sr[k - i], si[k - i]
            xr += cr * yr - ci * yi
            xi += cr * yi + ci * yr
        sr[k], si[k] = -xr, -xi
    return sr, si


def _from_power_sums(sr, si):
    """(re, im) of the monic polynomial of degree sr[0] whose roots have the
    power sums (sr, si); each step of Newton's inverse divides exactly by k."""
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
    return re, im


def _scaled(p, k, den=1):
    """k^n p(x/k) / den for the coefficient list p of degree n: its roots are
    k times those of p. The division is exact when den divides k and p's
    leading coefficient."""
    n = len(p) - 1
    return [c * k ** (n - i) // den for i, c in enumerate(p)]


def _integral(p, f):
    """(re, im) of f^m p(x/f) for the monic ExactPoly p of degree m, whose
    denominator divides f: its roots are f times those of p, its
    coefficients Gaussian integers."""
    return _scaled(p._re, f, p._den), _scaled(p._im, f, p._den)


# -- real roots --------------------------------------------------------------------
# Real integer polynomials are ascending lists of ints.


def _chain(a, b):
    """The primitive remainder sequence of the real a and b: a Sturm sequence
    when b = a', and its last element is gcd(a, b) up to a constant."""
    return [re for re, _ in kernel.poly_chain(a, [0] * len(a), b, [0] * len(b))]


def _derivative(p):
    return [k * c for k, c in enumerate(p)][1:]


def _sign_at(p, x):
    """The sign of p(x) for a rational x, from its homogenized integer value."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    for c in reversed(p):  # acc = den^deg(p) * p(num/den) at the end
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def _variations(chain, x):
    """Sign changes of the chain at x (zeros dropped)."""
    count, last = 0, 0
    for p in chain:
        s = _sign_at(p, x)
        if s:
            if last and s != last:
                count += 1
            last = s
    return count


def _sturm(p):
    """(s, its Sturm sequence) for s the monic squarefree part of the monic
    integer polynomial p."""
    chain = _chain(p, _derivative(p))
    g = chain[-1]
    if len(g) == 1:
        return p, chain
    # g divides the monic p, so by Gauss's lemma the primitive g is +-monic
    # and the pseudo-division is exact division
    if g[-1] < 0:
        g = [-c for c in g]
    _, s, _, r, _ = kernel.poly_divmod(p, [0] * len(p), g, [0] * len(g))
    if r:
        raise ArithmeticError("gcd(p, p') does not divide p")
    return s, _chain(s, _derivative(s))


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
        if _sign_at(p, hi) == 0:
            lo = hi  # halving met the root
        self.lo, self.hi = lo, hi
        # lo may be a smaller root; refine until neither end is a root
        while self.lo != self.hi and _sign_at(p, self.lo) == 0:
            self.refine()

    def refine(self):
        """Halve the enclosure; p is positive above the root and, on the
        isolating interval, negative below it."""
        lo, hi = self.lo, self.hi
        if lo == hi:
            return
        mid = (lo + hi) / 2
        s = _sign_at(self.poly, mid)
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
        p, q = _scaled(self.poly, k), _scaled(q, common // q_scale)
        lo, hi = self.lo * k, self.hi * k
        if lo == hi:
            return _sign_at(q, lo) == 0
        # g = gcd(q, p) divides the squarefree p, whose only root in (lo, hi]
        # is this one and which vanishes at neither end: g vanishes at the
        # root exactly when it changes sign on the interval
        g = _chain(q, p)[-1]
        return _sign_at(g, lo) != _sign_at(g, hi)

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
    return _power_sums(p, [0] * len(p), n)[0]


def _from_real_power_sums(s):
    return _from_power_sums(s, [0] * len(s))[0]


def _largest_root(radical):
    """rho^2 for the radical p as a _Root: the largest real root of M, whose
    roots are D^2 lam_i conj(lam_j) for the roots lam of p and D its
    denominator, over the scale D^2."""
    f = radical._den
    re, im = _integral(radical, f)
    sr, si = _power_sums(re, im, (len(re) - 1) ** 2)
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
    pa, pb = _scaled(pa, scale // a.scale), _scaled(pb, scale // b.scale)
    # the power sums of G: sum over x, y of (sqrt x + sqrt y)^2k + (sqrt x - sqrt y)^2k
    sa, sb = _real_power_sums(pa, 2 * n), _real_power_sums(pb, 2 * n)
    s = [2 * n] + [
        2 * sum(comb(2 * k, 2 * j) * sa[k - j] * sb[j] for j in range(k + 1))
        for k in range(1, 2 * n + 1)
    ]
    return _from_real_power_sums(s), scale
