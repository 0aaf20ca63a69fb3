"""Pure-Python exact kernels.

Matrices are carried in a normalized flat representation: a triple
``(den, re, im)`` where ``den`` is a positive int, ``re`` and ``im`` are
row-major lists of ints of length d*d, and gcd(den, content) == 1. The
represented matrix is (RE + i*IM) / den.

Sparse integer blocks are carried as ``sparse_rows``: one list of
(col, re, im) nonzeros per row, as ``shiftlab`` builds its sections;
``dense_rows`` spreads them back to a flat block.
``echelon``, the package's only Bareiss elimination, runs on them: ranks,
kernels, images and every canonical subspace basis in ``exact`` start from
it, on the rows that ``exact._reduce`` leaves after peeling row singletons.
``sparse_mul`` is the one sparse product: Gustavson's row-by-row product
(ACM TOMS 4, 1978) with one dense accumulator of length d, which also
returns the gcd of its entries. ``charpoly_ints`` makes each
Faddeev-LeVerrier step with it and ends at the adjugate, so ``exact``
takes charpolys and inverses from one pass. ``nilpotency_degree_ints``
reads integer numerators alone, since whether a power is zero does not
depend on the denominator. It first tries a certificate from the longest
paths of a ``pattern``, the columns of each row's nonzeros, which decides a
shift section with no value read when a longest path is unique, and
otherwise squares, dividing each power by its gcd so that the numerators
stay small. None of them touches a d*d block.

``poly_divmod`` and ``poly_chain`` are the package's only polynomial
division and remainder sequence, on ascending Gaussian-integer lists
``(re, im)``: one pseudo-remainder step whose multiplier is |l| for a real
leading coefficient l and |l|^2 otherwise, and the primitive remainder
sequence built on it. ``exact.ExactPoly`` takes quotients, gcds and
squarefree parts from them, and ``algebraic`` its Sturm sequences, exact
quotients and root tests. ``squarefree_mod_q`` certifies a polynomial
squarefree from its image modulo a prime, so that most squarefree parts
need no remainder sequence.

The products skip zero entries, and ``echelon`` keeps each row as a dict
of its nonzeros: they return the same integers as the dense loops, with
work proportional to the nonzero entries. Every exact division checks
its remainder and raises ``ArithmeticError`` when it is not zero, so a
broken invariant fails loudly (also under ``python -O``).
"""

from __future__ import annotations

from itertools import chain
from math import gcd


def normalize(den, re, im):
    if den < 0:
        den = -den
        re = [-v for v in re]
        im = [-v for v in im]
    g = den
    for v in re:
        if v:
            g = gcd(g, v)
            if g == 1:
                return den, re, im
    for v in im:
        if v:
            g = gcd(g, v)
            if g == 1:
                return den, re, im
    if g == 0:
        return 1, re, im
    if g > 1:
        den //= g
        re = [v // g for v in re]
        im = [v // g for v in im]
    return den, re, im


def mat_add(d, a, b):
    da, ra, ia = a
    db, rb, ib = b
    re = [ra[k] * db + rb[k] * da for k in range(d * d)]
    im = [ia[k] * db + ib[k] * da for k in range(d * d)]
    return normalize(da * db, re, im)


def mat_sub(d, a, b):
    da, ra, ia = a
    db, rb, ib = b
    re = [ra[k] * db - rb[k] * da for k in range(d * d)]
    im = [ia[k] * db - ib[k] * da for k in range(d * d)]
    return normalize(da * db, re, im)


def mat_scale(d, a, num_re, num_im, num_den):
    da, ra, ia = a
    re = [ra[k] * num_re - ia[k] * num_im for k in range(d * d)]
    im = [ra[k] * num_im + ia[k] * num_re for k in range(d * d)]
    return normalize(da * num_den, re, im)


def mat_mul(d, a, b):
    da, ra, ia = a
    db, rb, ib = b
    n = d * d
    re = [0] * n
    im = [0] * n
    a_real = not any(ia)
    b_real = not any(ib)
    if a_real and b_real:
        for i in range(d):
            ioff = i * d
            for k in range(d):
                av = ra[ioff + k]
                if av:
                    koff = k * d
                    for j in range(d):
                        re[ioff + j] += av * rb[koff + j]
    else:
        for i in range(d):
            ioff = i * d
            for k in range(d):
                avr = ra[ioff + k]
                avi = ia[ioff + k]
                if avr or avi:
                    koff = k * d
                    for j in range(d):
                        bvr = rb[koff + j]
                        bvi = ib[koff + j]
                        re[ioff + j] += avr * bvr - avi * bvi
                        im[ioff + j] += avr * bvi + avi * bvr
    return normalize(da * db, re, im)


def mat_pow(d, a, k):
    den = 1
    re = [0] * (d * d)
    im = [0] * (d * d)
    for i in range(d):
        re[i * d + i] = 1
    out = (den, re, im)
    base = a
    while k:
        if k & 1:
            out = mat_mul(d, out, base)
        base = mat_mul(d, base, base)
        k >>= 1
    return out


def charpoly_ints(rows):
    """Faddeev-LeVerrier over the Gaussian integers, on ``sparse_rows``.

    Input: a d x d integer matrix A as ``sparse_rows`` (no denominator).
    Output: (cre, cim, last), the ascending coefficient lists of
    det(lambda*I - A), length d+1, monic, and the last iterate M_d as
    ``sparse_rows``. All intermediate divisions are exact.

    With M_1 = I, step k takes c_k = -tr(A*M_k)/k and, for k < d, sets
    M_{k+1} = A*M_k + c_k*I; every product is a ``sparse_mul``. By
    Cayley-Hamilton A*M_d = -c_d*I, with c_d = cre[0] + i*cim[0], so M_d is
    (-1)^(d-1) times the adjugate of A.
    """
    d = len(rows)
    # descending coefficients c_0..c_d with c_0 = 1
    bre, bim = [1], [0]
    m = [[(i, 1, 0)] for i in range(d)]
    for k in range(1, d + 1):
        am, _ = sparse_mul(d, rows, m)
        tr_re = tr_im = 0
        for i, row in enumerate(am):
            for j, vr, vi in row:
                if j == i:
                    tr_re += vr
                    tr_im += vi
        ck_re, rem_re = divmod(-tr_re, k)
        ck_im, rem_im = divmod(-tr_im, k)
        if rem_re or rem_im:
            raise ArithmeticError(f"trace {tr_re}+{tr_im}i is not divisible by {k}")
        bre.append(ck_re)
        bim.append(ck_im)
        if k == d:
            break
        if ck_re or ck_im:
            for i, row in enumerate(am):
                for p, (j, vr, vi) in enumerate(row):
                    if j == i:
                        vr += ck_re
                        vi += ck_im
                        if vr or vi:
                            row[p] = (i, vr, vi)
                        else:
                            del row[p]
                        break
                else:
                    row.append((i, ck_re, ck_im))
        m = am
    # ascending order: coefficient of lambda^j is c_{d-j}
    return bre[::-1], bim[::-1], m


def sparse_rows(ncols, re, im):
    """The nonzeros of a flat row-major block of ncols columns, as rows of (col, re, im)."""
    return [
        [(j, re[off + j], im[off + j]) for j in range(ncols) if re[off + j] or im[off + j]]
        for off in range(0, len(re), ncols)
    ]


def dense_rows(ncols, rows):
    """The flat row-major (re, im) block of ``sparse_rows`` with ncols columns."""
    re, im = [0] * (len(rows) * ncols), [0] * (len(rows) * ncols)
    for off, row in zip(range(0, len(re), ncols), rows):
        for j, vr, vi in row:
            re[off + j], im[off + j] = vr, vi
    return re, im


def sparse_mul(d, a, b):
    """Gustavson's row-by-row product of two ``sparse_rows`` matrices, and
    the gcd of its entries (0 for the zero product).

    Row i of a*b accumulates b's row k times a's entry (i, k) into one dense
    accumulator of length d; ``mark`` records which columns row i has
    touched, so only those are read back. The gcd is taken as the entries
    are read back, and stops at 1.
    """
    acc_re = [0] * d
    acc_im = [0] * d
    mark = [-1] * d
    out = []
    g = 0
    for i, row in enumerate(a):
        cols = []
        for k, ar, ai in row:
            for j, br, bi in b[k]:
                if mark[j] == i:
                    acc_re[j] += ar * br - ai * bi
                    acc_im[j] += ar * bi + ai * br
                else:
                    mark[j] = i
                    cols.append(j)
                    acc_re[j] = ar * br - ai * bi
                    acc_im[j] = ar * bi + ai * br
        nz = []
        for j in cols:
            vr = acc_re[j]
            vi = acc_im[j]
            if vr or vi:
                nz.append((j, vr, vi))
                if g != 1:
                    g = gcd(g, vr, vi)
        out.append(nz)
    return out, g


def pattern(rows):
    """The sparsity pattern of ``sparse_rows``: the columns of each row's nonzeros."""
    return [[cell[0] for cell in row] for row in rows]


def nilpotency_degree_ints(cols_of, values):
    """Least m >= 1 with A**m == 0 for the d x d integer A, or None, from A's
    ``pattern`` and a function that returns A's ``sparse_rows``.

    First a certificate from the pattern's graph, with an edge j -> i for
    each entry (i, j): entry (i, j) of A**m is a sum over the walks of m
    edges from j to i. If the graph is acyclic and its longest path has L
    edges, no walk has L+1 edges, so A**(L+1) == 0. Kahn's pass, from the
    sinks, finds each vertex's height and counts its longest paths, capped
    at 2. Every walk of L edges from a start j of height L is a longest
    path, so when j has only one, A**L e_j is a single product of nonzero
    Gaussian integers, A**L != 0 and the degree is exactly L+1: a shift
    section is decided in one pass, with no call to ``values``.

    Otherwise (a cycle, or several longest paths from every start, whose
    terms may cancel) the squarings decide. A is nilpotent exactly when
    A**d == 0. The squares A**(2**j) are taken up to an exponent of at least
    d or to zero; then binary lifting finds the largest m with A**m != 0,
    high bits first: bit j stays set when A**m * A**(2**j) is still
    nonzero. Every power is divided by the gcd of its entries, so the
    numerators of long powers stay small; a positive factor never changes
    whether a power is zero.
    """
    d = len(cols_of)
    # Kahn's order from the sinks: a vertex enters once its out-edges are read
    waiting = [0] * d
    for j in chain.from_iterable(cols_of):
        waiting[j] += 1
    order = [j for j, count in enumerate(waiting) if not count]
    height = [0] * d  # edges on the longest path from each vertex
    paths = [1] * d  # the number of those paths, capped at 2
    for i in order:
        h = height[i] + 1
        for j in cols_of[i]:
            if h > height[j]:
                height[j], paths[j] = h, paths[i]
            elif h == height[j]:
                paths[j] = min(2, paths[j] + paths[i])
            waiting[j] -= 1
            if not waiting[j]:
                order.append(j)
    if len(order) == d:
        top = max(height, default=0)
        if any(paths[j] == 1 for j, level in enumerate(height) if level == top):
            return top + 1

    def product(x, y):
        out, g = sparse_mul(d, x, y)
        if g > 1:
            out = [[(j, vr // g, vi // g) for j, vr, vi in row] for row in out]
        return out

    squares = [values()]
    exponent = 1
    while exponent < d and any(squares[-1]):
        squares.append(product(squares[-1], squares[-1]))
        exponent *= 2
    if any(squares[-1]):
        return None
    power = None  # A**m up to a factor, None while m == 0
    m = 0
    for j in range(len(squares) - 2, -1, -1):
        candidate = squares[j] if power is None else product(power, squares[j])
        if any(candidate):
            power = candidate
            m += 1 << j
    return m + 1


def poly_divmod(ar, ai, br, bi):
    """Pseudo-division of Gaussian-integer polynomials: (m, qr, qi, rr, ri)
    with m * A = Q * B + R, m a positive integer and deg R < deg B.

    Polynomials are ascending lists (re, im); B is nonzero, and R has its
    trailing zeros stripped. With l the leading coefficient of B, each step
    multiplies the remainder by |l| and subtracts c * sign(l) times the
    shifted B when l is real, and otherwise multiplies by |l|^2 and
    subtracts c * conj(l), c the leading coefficient of the remainder. So a
    real B costs no more than real pseudo-division, and m is a positive
    multiple, which keeps the signs a Sturm sequence needs.
    """
    db = len(br) - 1
    lr, li = br[-1], bi[-1]
    if li:
        step, ur, ui = lr * lr + li * li, lr, -li
    else:
        step, ur, ui = abs(lr), (1 if lr > 0 else -1), 0
    rr, ri = list(ar), list(ai)
    steps = max(0, len(rr) - db)
    qr, qi = [0] * steps, [0] * steps
    m = 1
    for k in range(steps - 1, -1, -1):
        cr, ci = rr[k + db], ri[k + db]
        if step != 1:
            m *= step
            rr = [step * x for x in rr[: k + db]]
            ri = [step * y for y in ri[: k + db]]
            for j in range(k + 1, steps):
                qr[j] *= step
                qi[j] *= step
        tr, ti = cr * ur - ci * ui, cr * ui + ci * ur
        qr[k], qi[k] = tr, ti
        if tr or ti:
            for j in range(db):
                xr, xi = br[j], bi[j]
                rr[k + j] -= tr * xr - ti * xi
                ri[k + j] -= tr * xi + ti * xr
    n = min(len(rr), db)
    while n and not (rr[n - 1] or ri[n - 1]):
        n -= 1
    return m, qr, qi, rr[:n], ri[:n]


def poly_chain(ar, ai, br, bi):
    """The primitive remainder sequence of A and B (B nonzero): A, B, then
    each negated pseudo-remainder of the last two over the gcd of its parts,
    down to the last nonzero one, as (re, im) pairs.

    The last element is gcd(A, B) up to a constant factor; when B = A' and A
    is real, the sequence is a Sturm sequence of A (Basu, Pollack, Roy,
    *Algorithms in Real Algebraic Geometry*). Dividing out the content keeps
    the coefficients small (Brown, J. ACM 18, 1971).
    """
    chain = [(list(ar), list(ai)), (list(br), list(bi))]
    while True:
        _, _, _, rr, ri = poly_divmod(*chain[-2], *chain[-1])
        if not rr:
            return chain
        g = gcd(*rr, *ri)
        chain.append(([-x // g for x in rr], [-y // g for y in ri]))


# F_q for the prime q = 2^64 - 59, q = 1 mod 4, with SQRT_M1^2 = -1 mod q:
# x + iy -> x + SQRT_M1 * y is a ring homomorphism Z[i] -> F_q
Q = (1 << 64) - 59
SQRT_M1 = 2296021864060584341


def squarefree_mod_q(ar, ai):
    """True when the Gaussian-integer polynomial A, of degree n >= 1, is
    certified squarefree by its image B in F_q[x]: the leading coefficient
    of A maps to a nonzero value, n < q and gcd(B, B') = 1 in F_q[x].
    False means only that no certificate was found.

    The certificate is exact. The image of A' is B', and the leading
    coefficients of A and A' map to nonzero values (that of A' is n times
    that of A, and 0 < n < q), so the Sylvester matrix of B and B' is the
    entrywise image of that of A and A', and Res(B, B') is the image of
    Res(A, A'). Coprime B and B' have a nonzero resultant, so
    Res(A, A') != 0, and A has no repeated root.
    """
    q = Q
    f = [(x + SQRT_M1 * y) % q for x, y in zip(ar, ai)]
    n = len(f) - 1
    if not f[-1] or n >= q:
        return False
    g = [k * c % q for k, c in enumerate(f)][1:]
    while len(g) > 1:  # Euclid's algorithm; g's leading coefficient is nonzero
        inv = pow(g[-1], -1, q)
        head = len(g) - 1
        while len(f) > head:
            c = f.pop() * inv % q
            if c:
                off = len(f) - head
                for j in range(head):
                    f[off + j] = (f[off + j] - c * g[j]) % q
        while f and not f[-1]:
            f.pop()
        if not f:
            return False  # g, of degree >= 1, divides f
        f, g = g, f
    return True


def _gdiv_exact(xr, xi, pr, pi):
    # exact division of Gaussian integers: (xr+xi*i) / (pr+pi*i)
    nrm = pr * pr + pi * pi
    qr, rem_r = divmod(xr * pr + xi * pi, nrm)
    qi, rem_i = divmod(xi * pr - xr * pi, nrm)
    if rem_r or rem_i:
        raise ArithmeticError(f"{xr}+{xi}i is not divisible by {pr}+{pi}i")
    return qr, qi


def echelon(ncols, rows):
    """Fraction-free Bareiss elimination over the Gaussian integers, on
    ``sparse_rows`` with ncols columns.

    Returns (pivots, echelon): the pivot column of each nonzero row of the
    echelon form, and those rows as lists of (col, re, im) nonzeros in no
    particular column order. The rows below them are zero.

    The pivot of a column is the first row at or below the current one that
    is nonzero there; it is swapped into place. Each step sets
    x = (p*x - f*y) / prev on a row below the pivot, where p is the pivot,
    f the row's entry in the pivot column, y the pivot row's entry and prev
    the previous pivot (Bareiss 1968). A row with f == 0 is left as it is
    when p == prev, and is otherwise scaled by p / prev at its nonzeros.
    """
    work = [{j: (vr, vi) for j, vr, vi in row} for row in rows]
    prev_r, prev_i = 1, 0
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        if top == len(work):
            break
        p = next((i for i in range(top, len(work)) if col in work[i]), None)
        if p is None:
            continue
        work[top], work[p] = work[p], work[top]
        y = work[top]
        pr, pi = y.pop(col)
        same = pr == prev_r and pi == prev_i
        for x in work[top + 1:]:
            fr, fi = x.pop(col, (0, 0))
            if same and not (fr or fi):
                continue
            for cc in (x.keys() | y.keys()) if fr or fi else list(x):
                xr, xi = x.get(cc, (0, 0))
                yr, yi = y.get(cc, (0, 0))
                vr = (pr * xr - pi * xi) - (fr * yr - fi * yi)
                vi = (pr * xi + pi * xr) - (fr * yi + fi * yr)
                if prev_i:
                    vr, vi = _gdiv_exact(vr, vi, prev_r, prev_i)
                elif prev_r != 1:
                    vr, rem_r = divmod(vr, prev_r)
                    vi, rem_i = divmod(vi, prev_r)
                    if rem_r or rem_i:
                        raise ArithmeticError(f"Bareiss step is not divisible by {prev_r}")
                if vr or vi:
                    x[cc] = (vr, vi)
                elif cc in x:
                    del x[cc]
        y[col] = (pr, pi)
        prev_r, prev_i = pr, pi
        pivots.append(col)
    return pivots, [[(j, vr, vi) for j, (vr, vi) in row.items()] for row in work[:len(pivots)]]
