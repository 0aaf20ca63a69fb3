"""Weighted shift plus finite-rank operators on l2, truncated exactly.

An :class:`LTwoOpSpec` describes an operator as a shift direction, a rational
weight rule in the coordinate index, and a finite list of extra entries. The
operator acts on l2 sequences; ``truncate`` compresses it onto the first n
coordinates as an exact matrix. ``_section`` builds a section once: its
sparsity pattern, read off the spec with no weight value, and on demand its
integer sparse rows, whose weights are numerators over one denominator with
no Fraction per weight. ``truncate`` makes its matrix from the rows. The
``truncate`` command decides each section's nilpotency and certified kernel
on the pattern, by the longest-path certificate of ``nilpotency_degree_ints``
and the singleton peel, and reads the values only when a certificate fails;
a shift section, whose graph is one path, reads none. An n x n section is
nilpotent exactly when its charpoly is x^n, so its spectrum is the root 0
with multiplicity n; the command certifies only that root, and stops at a
section that is not nilpotent. Kernel vectors of the truncation that vanish
from coordinate n-1 onward are kernel vectors of the infinite operator:
certifying genuine point-spectrum facts is the purpose of
``finite_support_kernel``. Eigenvalues of truncations, by contrast, are
evidence only: finite sections of non-normal operators need not converge to
the true spectrum.

Spec text format (one key per line, ``#`` comments allowed):

    direction: down
    weights: 1/(k+1)
    weights_odd: -1/(k+1)
    weights_prefix: 1/2 0 1/3
    finite: 2 1 -1/2

``weights`` sets the rule for every index, ``weights_even``/``weights_odd``
override one parity. A rule is either a scalar literal (constant weight) or
``c/(k+a)`` with integer or rational c and nonnegative integer a. The
optional prefix lists explicit weights for the first indices. ``finite``
lines add entries (row, col, value) in 1-based coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import LiteralFormatError
from ._kernel_py import dense_rows, normalize
from .exact import ExactMatrix, _kernel, _parts
from .scalar import _RATIONAL, Scalar

__all__ = [
    "WeightRule",
    "LTwoOpSpec",
    "truncate",
    "finite_support_kernel",
    "parse_spec",
    "format_spec",
]

_DIRECTIONS = ("down", "up", "none")

# c/(k+a) with rational c and integer a >= 0
_TERM_RE = re.compile(
    rf"^\s*(?P<coef>[+-]?{_RATIONAL})\s*/\s*\(\s*k\s*\+\s*(?P<shift>\d+)\s*\)\s*$"
)


def _scaled(den, pair):
    """An exact (re, im) pair times den, for a den that clears its denominators."""
    return tuple(x.numerator * (den // x.denominator) for x in pair)


@dataclass(frozen=True)
class WeightRule:
    """Weight at 1-based index k.

    Each parity term is None (contributes 0) or a (coef, shift) pair of a
    nonzero Fraction and an int, meaning coef/(k+shift). ``const`` adds to
    every index. ``prefix`` overrides the rule entirely at indices
    1..len(prefix). ``const`` and the prefix entries are parsed literals.
    ``numerators`` is the rule's one formula: it reads the weights straight
    into the integer format of ``exact``, and ``weight`` reads one of them.
    ``zeros`` finds where the rule vanishes with no weight value.
    """

    even: tuple[Fraction, int] | None = None
    odd: tuple[Fraction, int] | None = None
    const: Scalar = Scalar(0)
    prefix: tuple[Scalar, ...] = ()

    def numerators(self, count, den=1):
        """(den, weights): the weights at indices 1..count as Gaussian-integer
        (re, im) pairs over one positive den, a multiple of the den passed in.

        den is one lcm of the prefix's and the constant's denominators and of
        q*(k+a) for each term p/q at an index k, so the term adds the
        integer p*(den // (q*(k+a))) to the constant's numerator and no
        Fraction is built per weight: each parity's p, q and a are read once,
        as ints. den need not be the least one: it may share a factor with
        every numerator.
        """
        prefix = [_parts(w) for w in self.prefix[:count]]
        const = _parts(self.const)
        # each parity's term p/(q*k + q*a) as (p, q, q*a); no term is 0/(0*k + 1)
        parity = [
            (t[0].numerator, t[0].denominator, t[0].denominator * t[1]) if t else (0, 0, 1)
            for t in (self.even, self.odd)
        ]
        terms = []  # (p, q*(k+a)) at each index k past the prefix
        for k in range(len(prefix) + 1, count + 1):
            p, q, b = parity[k % 2]
            terms.append((p, q * k + b))
        den = lcm(
            den,
            *(x.denominator for pair in (const, *prefix) for x in pair),
            *(q for _, q in terms),
        )
        c_re, c_im = _scaled(den, const)
        weights = [_scaled(den, pair) for pair in prefix]
        weights += [(c_re + p * (den // q), c_im) for p, q in terms]
        return den, weights

    def weight(self, k):
        """The weight at index k as an exact (re, im) pair."""
        if k < 1:
            raise ValueError("weight index must be >= 1")
        den, weights = self.numerators(k)
        return tuple(Fraction(x, den) for x in weights[-1])

    def zeros(self, count):
        """The indices 1..count of the zero weights. Past the prefix, a parity
        with no term is zero where the constant is, and a term p/(k+a), never
        zero, cancels a real constant c at k = -p/c - a only."""
        out = {k for k, w in enumerate(self.prefix[:count], 1) if w == 0}
        c_re, c_im = _parts(self.const)
        for parity, term in enumerate((self.even, self.odd)):
            first = len(self.prefix) + 1
            indices = range(first + (first - parity) % 2, count + 1, 2)
            if term is None and not (c_re or c_im):
                out.update(indices)
            elif term is not None and c_re and not c_im:
                k = -term[0] / c_re - term[1]
                if k.denominator == 1 and int(k) in indices:
                    out.add(int(k))
        return out

    def is_zero(self):
        return (
            self.even is None
            and self.odd is None
            and self.const == 0
            and all(w == 0 for w in self.prefix)
        )


@dataclass(frozen=True)
class LTwoOpSpec:
    """Shift direction + weight rule + finite-rank entries (1-based)."""

    direction: str = "none"
    weights: WeightRule = field(default_factory=WeightRule)
    finite_rank: tuple[tuple[int, int, Scalar], ...] = ()

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        for r, c, _ in self.finite_rank:
            if r < 1 or c < 1:
                raise ValueError("finite_rank indices are 1-based positive")

    def support(self):
        """Largest coordinate index the finite-rank part touches."""
        s = 0
        for r, c, _ in self.finite_rank:
            s = max(s, r, c)
        return s

    def __add__(self, other):
        """Pointwise sum, defined when shift parts do not collide.

        Two specs with the same direction merge their weight rules only if
        one rule is identically zero or both rules can be kept via the
        finite-rank part; to stay simple we require compatible parities.
        """
        if not isinstance(other, LTwoOpSpec):
            return NotImplemented
        if other.direction == "none" or other.weights.is_zero():
            return LTwoOpSpec(
                direction=self.direction,
                weights=self.weights,
                finite_rank=self.finite_rank + other.finite_rank,
            )
        if self.direction == "none" or self.weights.is_zero():
            return LTwoOpSpec(
                direction=other.direction,
                weights=other.weights,
                finite_rank=self.finite_rank + other.finite_rank,
            )
        if self.direction != other.direction:
            raise ValueError("cannot add specs with opposing shift directions")
        merged = _merge_rules(self.weights, other.weights)
        return LTwoOpSpec(
            direction=self.direction,
            weights=merged,
            finite_rank=self.finite_rank + other.finite_rank,
        )


def _merge_rules(r1, r2):
    # Parity-wise merge: each parity slot must be free in one of the rules.
    prefix_len = max(len(r1.prefix), len(r2.prefix))
    if prefix_len:
        raise ValueError("cannot merge weight rules with explicit prefixes")
    (re1, im1), (re2, im2) = _parts(r1.const), _parts(r2.const)
    const = Scalar(re1 + re2, im1 + im2)

    def pick(t1, t2):
        if t1 is not None and t2 is not None:
            if t1[1] == t2[1]:
                coef = t1[0] + t2[0]
                return None if coef == 0 else (coef, t1[1])
            raise ValueError("cannot merge two closed-form terms of one parity")
        return t1 if t1 is not None else t2

    return WeightRule(
        even=pick(r1.even, r2.even), odd=pick(r1.odd, r2.odd), const=const
    )


def _section(spec, n):
    """The n-section as (pattern, values): the ``pattern`` of its nonzeros,
    read off the spec with no weight value, and a function that builds its
    integer ``sparse_rows`` over a positive den, which may share a factor
    with them, as (den, rows) on its first call.

    The weight of k = 1..n-1 sits at cell (k, k-1) for down or (k-1, k) for
    up, unless ``WeightRule.zeros`` finds it zero. Finite-rank entries add
    to their cell as exact values, and a cell that sums to zero is dropped
    (EXNILP_N relies on T + N cancelling at (2, 1)).
    """
    if n < 1 or n < spec.support():
        raise ValueError(f"truncation size {n} below finite-rank support {spec.support()}")
    down = int(spec.direction == "down")
    pattern = [[]] * n  # rows are replaced, never changed in place
    if spec.direction != "none":
        zeros = spec.weights.zeros(n - 1)
        # weight k sits in row k - 1 + down, column k - down
        pattern[down:n - 1 + down] = [[] if k in zeros else [k - down] for k in range(1, n)]
    touched = {}  # the exact value of each cell that the finite-rank part touches
    for r, c, v in spec.finite_rank:
        i, j = r - 1, c - 1
        if (i, j) not in touched:
            touched[i, j] = spec.weights.weight(j + down) if j in pattern[i] else (0, 0)
        touched[i, j] = tuple(x + y for x, y in zip(touched[i, j], _parts(v)))
    for (i, j), pair in touched.items():
        pattern[i] = [t for t in pattern[i] if t != j] + ([j] if any(pair) else [])

    built = []

    def values():
        if not built:
            den = lcm(*(x.denominator for pair in touched.values() for x in pair))
            if spec.direction != "none":
                den, weights = spec.weights.numerators(n - 1, den)
            # weight k sits in column k - down, read over one den
            built.append((den, [
                [(j, *(_scaled(den, touched[i, j]) if (i, j) in touched else weights[j + down - 1]))
                 for j in cols]
                for i, cols in enumerate(pattern)
            ]))
        return built[0]

    return pattern, values


def truncate(spec, n):
    """Exact n x n compression onto the first n coordinates, from ``_section``'s rows."""
    den, rows = _section(spec, n)[1]()
    return ExactMatrix._from_rep(n, normalize(den, *dense_rows(n, rows)))


def finite_support_kernel(spec, n, *, section=None):
    """Kernel vectors of the n-truncation supported inside coordinates < n.

    Such vectors are annihilated by the infinite operator itself: every row
    of the infinite matrix that meets coordinates 1..n-1 is present in the
    truncation. The basis is therefore a certified subspace of the true
    kernel, stable as n grows. A caller that holds the ``section`` from
    ``_section`` passes it, so that it is not built twice. The elimination
    peels row singletons on the pattern first (``exact._peel``): a shift
    section peels whole, in time linear in its nonzeros, with no value read.
    """
    if n < spec.support() + 1 or n < 2:
        raise ValueError(f"need n >= support+1 = {spec.support() + 1} and n >= 2")
    pattern, values = section or _section(spec, n)
    # the kernel vectors zero at the last coordinate: append the row e_(n-1)
    return _kernel(n, pattern + [[n - 1]], lambda: values()[1] + [[(n - 1, 1, 0)]])[1]


# -- text format -------------------------------------------------------------


def _parse_rule_value(text, where):
    """A rule is a closed-form term c/(k+a) or a constant scalar literal."""
    m = _TERM_RE.match(text)
    if m:
        # a zero coefficient contributes nothing, like no term at all
        coef = Fraction(m.group("coef"))
        return ((coef, int(m.group("shift"))) if coef else None), None
    return None, _parse_scalar(text, where, "c/(k+a) or a scalar literal")


def _parse_scalar(text, where, expected="a scalar literal"):
    try:
        return Scalar.parse(text)
    except LiteralFormatError:
        raise LiteralFormatError(f"{where}: expected {expected}, got {text!r}") from None


def parse_spec(text):
    """Parse the declarative text format into an LTwoOpSpec."""
    direction = "none"
    even = odd = None
    const = Scalar(0)
    prefix = ()
    finite = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise LiteralFormatError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        where = f"line {lineno} ({key})"
        if key == "direction":
            if value not in _DIRECTIONS:
                raise LiteralFormatError(f"{where}: unknown direction {value!r}")
            direction = value
        elif key in ("weights", "weights_even", "weights_odd"):
            term, constant = _parse_rule_value(value, where)
            if key == "weights":
                if constant is not None:
                    const = constant
                else:
                    even = odd = term
            elif key == "weights_even":
                if constant is not None and not constant.is_zero():
                    raise LiteralFormatError(f"{where}: parity constants unsupported")
                even = term
            else:
                if constant is not None and not constant.is_zero():
                    raise LiteralFormatError(f"{where}: parity constants unsupported")
                odd = term
        elif key == "weights_prefix":
            prefix = tuple(_parse_scalar(tok, where) for tok in value.split())
        elif key == "finite":
            parts = value.split()
            if len(parts) != 3:
                raise LiteralFormatError(f"{where}: expected 'row col value'")
            try:
                r, c = int(parts[0]), int(parts[1])
            except ValueError:
                raise LiteralFormatError(f"{where}: row and col must be integers") from None
            if r < 1 or c < 1:
                raise LiteralFormatError(f"{where}: row and col must be 1-based positive")
            finite.append((r, c, _parse_scalar(parts[2], where)))
        else:
            raise LiteralFormatError(f"line {lineno}: unknown key {key!r}")
    rule = WeightRule(even=even, odd=odd, const=const, prefix=prefix)
    return LTwoOpSpec(direction=direction, weights=rule, finite_rank=tuple(finite))


def _format_term(term):
    coef, shift = term
    return f"{coef}/(k+{shift})"


def format_spec(spec):
    """Canonical text rendering; parse_spec(format_spec(s)) reproduces s."""
    lines = [f"direction: {spec.direction}"]
    rule = spec.weights
    if rule.even is not None and rule.even == rule.odd:
        lines.append(f"weights: {_format_term(rule.even)}")
    else:
        if rule.even is not None:
            lines.append(f"weights_even: {_format_term(rule.even)}")
        if rule.odd is not None:
            lines.append(f"weights_odd: {_format_term(rule.odd)}")
    if rule.const != 0:
        lines.append(f"weights: {Scalar.coerce(rule.const).literal()}")
    if rule.prefix:
        lines.append(
            "weights_prefix: " + " ".join(Scalar.coerce(w).literal() for w in rule.prefix)
        )
    for r, c, v in spec.finite_rank:
        lines.append(f"finite: {r} {c} {Scalar.coerce(v).literal()}")
    return "\n".join(lines) + "\n"
