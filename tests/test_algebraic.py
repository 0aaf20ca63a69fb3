"""The real algebraic numbers of ``algebraic``: _Root's isolation and its
root test against a second polynomial, one case per outcome."""

from weakcomm.algebraic import _Root, _sign_at


def _ends_are_not_roots(r):
    return all(_sign_at(r.poly, x) for x in (r.lo, r.hi))


def test_exact_dyadic_root():
    r = _Root([4, -5, 1], 1)  # (x - 1)(x - 4): halving meets 4
    assert r.lo == r.hi == 4
    assert r.is_root_of([-4, 1], 1)
    assert r.is_root_of([-8, 1], 2)  # x - 8 over the scale 2
    assert not r.is_root_of([-3, 1], 1)


def test_root_of_a_multiple():
    r = _Root([-2, 0, 1], 1)  # sqrt(2)
    assert r.lo != r.hi and _ends_are_not_roots(r)
    assert r.is_root_of([-2, -2, 1, 1], 1)  # (x^2 - 2)(x + 1)


def test_coprime_polynomial():
    r = _Root([-2, 0, 1], 1)
    assert not r.is_root_of([-3, 0, 1], 1)


def test_common_factor_that_misses_the_root():
    # x^3 - 2x: the first halving point 0 is a smaller root, which isolation
    # moves off the ends, so the common factor x of x^2 - 5x does not count
    r = _Root([0, -2, 0, 1], 1)
    assert 0 <= r.lo < r.hi and _ends_are_not_roots(r)
    assert not r.is_root_of([0, -5, 1], 1)


def test_common_factor_that_holds_the_root():
    r = _Root([0, -2, 0, 1], 1)
    assert r.is_root_of([14, -2, -7, 1], 1)  # (x^2 - 2)(x - 7)
    r = _Root([-2, 0, 1], 2)  # sqrt(2)/2
    assert r.is_root_of([-8, 0, 1], 4)  # 2 sqrt(2) over the scale 4
    assert not r.is_root_of([-2, 0, 1], 4)
