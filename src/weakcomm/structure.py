"""Iterate-chain profiles and structural criteria for single matrices and pairs.

For a matrix T and n >= 0, the chain quantities are

    alpha(T_[n]) = dim( ker(T) meet ran(T^n) )
    beta(T_[n])  = rank(T^n) - rank(T^(n+1))

computed by two genuinely different routes (subspace intersection vs rank
differences); at finite dimension they coincide for every n, the chain
stabilizes at 0 by n = dim, and ascent equals descent. The profile keeps
both sequences plus the stabilization indices so the coincidences are
observable rather than assumed.

The pair-level operations implement exact range/kernel criteria for
one-sided commutation, eigenspace invariance under a one-sidedly commuting
companion, kernel inclusions under nilpotent perturbation, and exact
spectrum comparisons through characteristic-polynomial radicals.

The criteria and inclusions build kernels only, as canonical bases, and
decide each containment by reduction against one: a range by the columns
that span it (``_criterion``), ker(x) inside ker(y^p) by applying y p times
to the kernel basis of x (``_kernel_annihilated``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import HypothesisNotMetError, NotNilpotentError
from .exact import (
    ExactMatrix,
    _null_space,
    charpoly,
    nilpotency_degree,
    poly_radical,
    poly_radical_nonzero,
    rank_kernel,
)
from .relations import PairContext
from .scalar import Scalar

__all__ = [
    "ChainProfile",
    "chain_profile",
    "range_kernel_criterion",
    "RestrictionVerdict",
    "invariant_restriction",
    "kernel_inclusion_forward",
    "kernel_inclusion_reverse",
    "nonzero_spectrum_equal_exact",
    "full_spectrum_equal_exact",
    "DisPropagationVerdict",
    "dis_propagation",
]


@dataclass(frozen=True)
class ChainProfile:
    dim: int
    alpha_seq: tuple
    beta_seq: tuple
    ascent: int
    descent: int
    stable_degree: int
    essential_degree: int
    index: int

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "alpha_seq": list(self.alpha_seq),
            "beta_seq": list(self.beta_seq),
            "ascent": self.ascent,
            "descent": self.descent,
            "stable_degree": self.stable_degree,
            "essential_degree": self.essential_degree,
            "index": self.index,
        }


def chain_profile(t):
    """Full iterate-chain profile of a square matrix."""
    d = t.dim
    ranks = []
    kernels = []
    images = []
    power = ExactMatrix.identity(d)
    for n in range(d + 2):
        r, ker, img = rank_kernel(power)
        ranks.append(r)
        kernels.append(ker)
        images.append(img)
        if n <= d:
            power = power * t
    ker_t = kernels[1]
    alpha_seq = tuple(ker_t.intersect(images[n]).dim for n in range(d + 1))
    beta_seq = tuple(ranks[n] - ranks[n + 1] for n in range(d + 1))

    ascent = next(n for n in range(d + 1) if kernels[n] == kernels[n + 1])
    descent = next(n for n in range(d + 1) if images[n] == images[n + 1])
    tail = alpha_seq[d]
    stable = d
    while stable > 0 and alpha_seq[stable - 1] == tail:
        stable -= 1
    essential = 0  # min(alpha, beta) is finite from the start at finite dimension
    return ChainProfile(
        dim=d,
        alpha_seq=alpha_seq,
        beta_seq=beta_seq,
        ascent=ascent,
        descent=descent,
        stable_degree=stable,
        essential_degree=essential,
        index=alpha_seq[essential] - beta_seq[essential],
    )


def range_kernel_criterion(s, t):
    """Exact subspace forms of the two one-sided commutation memberships.

    Returns (first, second) where
      first  <=> ran(s*t - t*s) inside ker(t)   (equivalent to t*s in comm(t))
      second <=> ran(t) inside ker(s*t - t*s)   (equivalent to s*t in comm(t))
    computed by ``_criterion``, which reduces each range's spanning columns
    against the other's canonical kernel basis, not from the product flags.
    """
    return _criterion(t, s * t - t * s)


def _criterion(t, c):
    """(ran(c) inside ker(t), ran(t) inside ker(c)): the columns of each
    matrix, reduced against the canonical kernel basis of the other."""
    d = t.dim
    return tuple(
        _null_space(k)[1]._spans((r._re[j::d], r._im[j::d]) for j in range(d))
        for r, k in ((c, t), (t, c))
    )


@dataclass(frozen=True)
class RestrictionVerdict:
    hypothesis_met: bool
    invariant: bool
    restrictions_commute: bool
    subspace_dim: int

    def to_json_dict(self):
        return asdict(self)


def invariant_restriction(s, t, lam):
    """Invariance of ker(t - lam) under s when s*t commutes with t, lam != 0.

    When the eigenspace is invariant, the restrictions of s and t to it are
    formed in the eigenspace basis and checked to commute exactly.
    """
    lam = Scalar.coerce(lam)
    if lam.is_zero():
        raise ValueError("lam must be nonzero")
    st = s * t
    hypothesis_met = (st * t) == (t * st)
    if not hypothesis_met:
        return RestrictionVerdict(False, False, False, 0)
    shifted = t - ExactMatrix.identity(t.dim) * lam
    eigenspace = _null_space(shifted)[1]
    m = eigenspace.dim
    invariant = eigenspace.contains(eigenspace.image_under(s))
    if not invariant:
        return RestrictionVerdict(True, False, False, m)
    if m == 0:
        return RestrictionVerdict(True, True, True, 0)

    basis = eigenspace._matrix()

    def restriction(op):
        # row j of basis * op^T is op * basis_j, and its coordinates are column j
        coords = [eigenspace.coordinates_of(row) for row in (basis * op.transpose()).rows()[:m]]
        if None in coords:
            raise ArithmeticError("eigenspace is not invariant under the operator")
        return ExactMatrix(coords).transpose()

    s_m = restriction(s)
    t_m = restriction(t)
    return RestrictionVerdict(True, True, (s_m * t_m) == (t_m * s_m), m)


def _require_degree(n, p):
    deg = nilpotency_degree(n)
    if deg is None:
        raise NotNilpotentError("perturbation must be nilpotent")
    if p is None:
        return deg
    if not (n ** p).is_zero():
        raise HypothesisNotMetError(f"n**{p} != 0 (nilpotency degree is {deg})")
    return p


def kernel_inclusion_forward(t, n, lam, p=None):
    """ker(t - lam) inside ker((t + n - lam)^p) for nilpotent n of degree <= p.

    Requires lam != 0 and the membership t in comm(n*t); violations raise.
    """
    lam = Scalar.coerce(lam)
    if lam.is_zero():
        raise ValueError("lam must be nonzero")
    p = _require_degree(n, p)
    nt = n * t
    if (t * nt) != (nt * t):
        raise HypothesisNotMetError("t does not commute with n*t")
    shift = ExactMatrix.identity(t.dim) * lam
    return _kernel_annihilated(t - shift, t + n - shift, p)


def kernel_inclusion_reverse(t, n, lam, p=None):
    """ker(t + n - lam) inside ker((t - lam)^q) under either reverse hypothesis.

    Applicable when n*n == 0 and t commutes with n*t (then q = 2), or when n
    is nilpotent of degree <= p and n commutes with t*n (then q = p). Raises
    when neither hypothesis holds.
    """
    lam = Scalar.coerce(lam)
    if lam.is_zero():
        raise ValueError("lam must be nonzero")
    nt, tn = n * t, t * n
    if (n * n).is_zero() and (t * nt) == (nt * t):
        q = 2
    elif (n * tn) == (tn * n):
        q = _require_degree(n, p)
    else:
        raise HypothesisNotMetError(
            "need n**2 == 0 with t in comm(n*t), or n in comm(t*n) with n nilpotent"
        )
    shift = ExactMatrix.identity(t.dim) * lam
    return _kernel_annihilated(t + n - shift, t - shift, q)


def _kernel_annihilated(x, y, p):
    """ker(x) inside ker(y^p): y applied p times to the kernel basis of x leaves zero."""
    v, yt = _null_space(x)[1]._matrix(), y.transpose()
    for _ in range(p):
        v = v * yt  # row i of V * y^T is y times basis vector i
    return v.is_zero()


def nonzero_spectrum_equal_exact(a, b):
    """Equality of nonzero eigenvalue sets via charpoly radicals, exactly."""
    return poly_radical_nonzero(charpoly(a)) == poly_radical_nonzero(charpoly(b))


def full_spectrum_equal_exact(a, b):
    """Equality of eigenvalue sets (zero included) via charpoly radicals."""
    return poly_radical(charpoly(a)) == poly_radical(charpoly(b))


@dataclass(frozen=True)
class DisPropagationVerdict:
    hypothesis_met: bool
    holds: bool
    stable_degree_ts: int
    stable_degree_s: int
    stable_degree_t: int

    def to_json_dict(self):
        return asdict(self)


def dis_propagation(s, t):
    """Stable-degree collapse along a product.

    Hypothesis: s belongs to comm_r(t) and the product t*s has stable
    degree 0. Conclusion checked: s has stable degree 0 and t has stable
    degree at most 1. All three degrees are reported either way.
    """
    dis_ts = chain_profile(t * s).stable_degree
    dis_s = chain_profile(s).stable_degree
    dis_t = chain_profile(t).stable_degree
    hypothesis_met = PairContext(t, s).flag("comm_r") and dis_ts == 0
    holds = (dis_s == 0 and dis_t <= 1) if hypothesis_met else False
    return DisPropagationVerdict(hypothesis_met, holds, dis_ts, dis_s, dis_t)
