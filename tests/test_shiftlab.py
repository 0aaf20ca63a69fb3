"""Weighted shift specs: parsing, truncation, certified kernels."""

from fractions import Fraction

import pytest

from weakcomm import shiftlab
from weakcomm._kernel_py import dense_rows, nilpotency_degree_ints, normalize
from weakcomm._kernel_py import pattern as _pattern_of
from weakcomm.errors import LiteralFormatError
from weakcomm.exact import (
    ExactMatrix,
    Scalar,
    SubspaceBasis,
    _charpoly_rows,
    _clear_denominators,
    _parts,
    charpoly,
    nilpotency_degree,
    rank_kernel,
)
from weakcomm.instances import ExampleId, example_entry, paper_example
from weakcomm.relations import relation_check
from weakcomm.shiftlab import (
    LTwoOpSpec,
    WeightRule,
    finite_support_kernel,
    format_spec,
    parse_spec,
    truncate,
)

from field_scalar import FieldScalar


def _spec(example_id):
    spec, _ = paper_example(example_id)
    return spec


def test_weight_rule_basics():
    r = WeightRule(even=(Fraction(1), 0), odd=(Fraction(-1), 1))
    assert r.weight(2) == (Fraction(1, 2), 0)
    assert r.weight(3) == (Fraction(-1, 4), 0)
    with pytest.raises(ValueError):
        r.weight(0)
    assert not r.is_zero()
    assert WeightRule().is_zero()
    # a constant adds to the closed-form term of either parity
    c = WeightRule(even=(Fraction(1), 0), const=Scalar(Fraction(1, 2), 1))
    assert c.weight(2) == (Fraction(1), 1)
    assert c.weight(3) == (Fraction(1, 2), 1)


def test_weight_rule_prefix_overrides():
    r = WeightRule(odd=(Fraction(1), 0), even=(Fraction(1), 0), prefix=(Scalar(7),))
    assert r.weight(1) == (7, 0)
    assert r.weight(2) == (Fraction(1, 2), 0)


def test_parse_format_round_trip():
    text = "direction: down\nweights: 1/(k+1)\nfinite: 2 1 -1/2\n"
    spec = parse_spec(text)
    assert spec.direction == "down"
    assert spec.weights.weight(1) == (Fraction(1, 2), 0)
    assert spec.finite_rank == ((2, 1, Scalar(Fraction(-1, 2))),)
    assert parse_spec(format_spec(spec)) == spec


def test_zero_weight_term_is_no_term():
    zero = parse_spec("direction: down\nweights_even: 0/(k+1)\nweights_odd: -0/(k+3)\n")
    assert zero.weights == WeightRule() and zero.weights.is_zero()
    assert format_spec(zero) == "direction: down\n"
    assert parse_spec("direction: up\nweights: 0/(k+2)\n").weights == WeightRule()
    # an identically zero shift adds to a shift of either direction
    up = parse_spec("direction: up\nweights: 1/(k+1)\nfinite: 1 2 1\n")
    for total in (zero + up, up + zero):
        assert truncate(total, 8) == truncate(up, 8)


def test_parse_parity_and_prefix_and_const():
    spec = parse_spec(
        "direction: up\nweights_odd: -1/(k+2)\nweights_prefix: 1/2 0\n"
    )
    assert spec.weights.weight(1) == (Fraction(1, 2), 0)
    assert spec.weights.weight(2) == (0, 0)
    assert spec.weights.weight(3) == (Fraction(-1, 5), 0)
    assert spec.weights.weight(4) == (0, 0)
    assert parse_spec(format_spec(spec)) == spec
    const = parse_spec("direction: down\nweights: 2/3\n")
    assert const.weights.weight(5) == (Fraction(2, 3), 0)


def test_parse_comments_and_errors():
    spec = parse_spec("# header\ndirection: down # trailing\nweights: 1/(k+1)\n")
    assert spec.direction == "down"
    for bad in (
        "direction: sideways\n",
        "weights: 1/(j+1)\n",
        "finite: 1 2\n",
        "mystery: 3\n",
        "no separators here\n",
    ):
        with pytest.raises(LiteralFormatError):
            parse_spec(bad)


def test_parse_spec_bad_literals_name_the_line():
    for bad in (
        "weights: 1/0",
        "weights: 3/0/(k+1)",
        "weights_prefix: 1 2/0",
        "finite: 1 1 2/0",
        "finite: a 1 2",
        "finite: 0 1 2",
        "finite: 1 -1 2",
    ):
        with pytest.raises(LiteralFormatError, match="^line 2 "):
            parse_spec("direction: down\n" + bad + "\n")
    assert parse_spec("weights: 3/10/(k+1)\n").weights.even == (Fraction(3, 10), 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        LTwoOpSpec(direction="left")
    with pytest.raises(ValueError):
        LTwoOpSpec(finite_rank=((0, 1, Scalar(1)),))


def test_truncate_weighted_shift():
    spec = parse_spec("direction: down\nweights: 1/(k+1)\n")
    m = truncate(spec, 4)
    rows = [
        [Scalar(0), Scalar(0), Scalar(0), Scalar(0)],
        [Scalar(Fraction(1, 2)), Scalar(0), Scalar(0), Scalar(0)],
        [Scalar(0), Scalar(Fraction(1, 3)), Scalar(0), Scalar(0)],
        [Scalar(0), Scalar(0), Scalar(Fraction(1, 4)), Scalar(0)],
    ]
    assert m == ExactMatrix(rows)
    up = truncate(parse_spec("direction: up\nweights: 1\n"), 3)
    assert up == ExactMatrix.single_entry(3, 0, 1) + ExactMatrix.single_entry(3, 1, 2)


def reference_truncate(spec, n):
    """The n x n Scalar grid, finite-rank entries added to their cell."""
    if n < 1 or n < spec.support():
        raise ValueError(f"truncation size {n} below finite-rank support {spec.support()}")
    zero = FieldScalar(0)
    rows = [[zero] * n for _ in range(n)]
    if spec.direction == "down":
        for k in range(1, n):
            rows[k][k - 1] = FieldScalar(*spec.weights.weight(k))
    elif spec.direction == "up":
        for k in range(1, n):
            rows[k - 1][k] = FieldScalar(*spec.weights.weight(k))
    for r, c, v in spec.finite_rank:
        rows[r - 1][c - 1] += Scalar.coerce(v)
    return ExactMatrix(rows)


def _truncation_specs():
    t = _spec(ExampleId.EXNILP_T)
    n = _spec(ExampleId.EXNILP_N)
    q = _spec(ExampleId.EXNILP_Q)
    texts = (
        "direction: up\nweights: 2/(k+3)\nfinite: 1 1 1/3\n",
        "direction: none\nfinite: 3 1 1/2+1i\nfinite: 1 3 -2/5i\nfinite: 3 1 1/7\n",
        "direction: down\nweights: 1/(k+1)\nweights_prefix: 1/2 0 1/3i\n",
        "direction: up\nweights_even: -3/(k+0)\nweights: 1/2\nfinite: 4 2 3/4-1/6i\n",
        # cancels the shift entry at (3, 2) and leaves a complex one at (2, 1)
        "direction: down\nweights: 1\nfinite: 3 2 -1\nfinite: 2 1 1/9i\n",
    )
    return [t, n, q, t + n, t + q, n + q] + [parse_spec(text) for text in texts]


def test_truncate_matches_scalar_grid_reference():
    for spec in _truncation_specs():
        for size in list(range(max(1, spec.support()), 25)) + [80]:
            m = truncate(spec, size)
            expected = reference_truncate(spec, size)
            assert m == expected, (format_spec(spec), size)
            assert m._rep() == expected._rep(), (format_spec(spec), size)


def _fraction_weight(rule, k):
    """The weight at index k added up in Fractions, one per weight."""
    if k <= len(rule.prefix):
        return _parts(rule.prefix[k - 1])
    term = rule.even if k % 2 == 0 else rule.odd
    re, im = _parts(rule.const)
    if term is not None:
        re += Fraction(term[0], k + term[1])
    return re, im


def _fraction_section(spec, n):
    """The section from Fraction weights over one ``_clear_denominators``."""
    cells = [(r - 1, c - 1) for r, c, _ in spec.finite_rank]
    values = [_parts(v) for _, _, v in spec.finite_rank]
    if spec.direction != "none":
        down = spec.direction == "down"
        cells += [(k, k - 1) if down else (k - 1, k) for k in range(1, n)]
        values += [_fraction_weight(spec.weights, k) for k in range(1, n)]
    den, re, im = _clear_denominators(values)
    rows = [{} for _ in range(n)]
    for (i, j), vr, vi in zip(cells, re, im):
        xr, xi = rows[i].get(j, (0, 0))
        rows[i][j] = (xr + vr, xi + vi)
    return den, [[(j, vr, vi) for j, (vr, vi) in row.items() if vr or vi] for row in rows]


def _degree(rows):
    """The nilpotency degree with the pattern read off the full integer rows."""
    return nilpotency_degree_ints(_pattern_of(rows), lambda: rows)


def _full_kernel(spec, n, den, rows):
    """``finite_support_kernel`` with the pattern read off the full integer rows."""
    return finite_support_kernel(spec, n, section=(_pattern_of(rows), lambda: (den, rows)))


# hand-built specs, each with what it exercises on the pattern route
_ROUTE_SPECS = {
    "prefix and finite rank": (
        "direction: up\nweights_even: -2/3/(k+2)\nweights_odd: 5/(k+0)\n"
        "weights_prefix: 1/2 0 1/3i\nfinite: 1 3 1/2+1/7i\nfinite: 4 2 -3/4i\n"
    ),
    "complex constant": "direction: down\nweights: 1/(k+1)\nweights: 1/2+1/3i\nfinite: 2 2 1/5\n",
    # 1 - 2/k is zero at k = 2 only
    "vanishes once": "direction: down\nweights: 1\nweights_even: -2/(k+0)\n",
    # -3/(k+1) + 1 is zero at k = 2, which is even, so no odd weight is zero
    "root of the other parity": "direction: up\nweights_odd: -3/(k+1)\nweights: 1\n",
    "root not an integer": "direction: down\nweights: 1/(k+0)\nweights: -2/5\n",
    "zero prefix": "direction: up\nweights_prefix: 1 0 1/2 0\nweights: 1/(k+1)\n",
    "zero parity": "direction: up\nweights_even: 2/(k+3)\nweights_prefix: 0 5\n",
    # the finite-rank entry cancels the weight 1/2 at (2, 1)
    "cancelled cell": "direction: down\nweights: 1/(k+1)\nfinite: 2 1 -1/2\n",
    # 0 -> 1 -> 3 and 0 -> 2 -> 3 add up to 2 + 1/3 at 3: the longest path
    # from 0 is not unique, so the squarings find the degree, and the kernel
    # keeps row 3 for Bareiss
    "two longest paths": "direction: down\nweights_odd: 1/(k+0)\nfinite: 3 1 1\nfinite: 4 2 2\n",
    # the same two paths cancel, so the squarings find A^2 = 0
    "paths cancel": "direction: down\nweights_odd: 1/(k+0)\nfinite: 3 1 1\nfinite: 4 2 -1/3\n",
    # the block [[1, 1], [-1, -1]] squares to zero but is a cycle, and its
    # rows are left to Bareiss; the up shift past it is a separate path
    "cycle": (
        "direction: up\nweights: 1/(k+1)\nweights_prefix: 0 0\n"
        "finite: 1 1 1\nfinite: 1 2 1\nfinite: 2 1 -1\nfinite: 2 2 -1\n"
    ),
    "none": "direction: none\nfinite: 1 1 1\nfinite: 1 2 1\nfinite: 2 1 -1\nfinite: 2 2 -1\n",
    # the cycle 0 -> 1 -> 2 -> 0 has a nonzero product: not nilpotent
    "not nilpotent": "direction: down\nweights: 1/(k+1)\nfinite: 1 3 1\n",
}


def test_integer_section_matches_the_fraction_route(monkeypatch, capsys):
    # the pattern route against the full integer rows of Fraction weights,
    # for n <= 90: the pattern, the values, the degree, the certified
    # kernel, the error text of a section that is not nilpotent, and the
    # fallback that each spec needs
    from weakcomm import _kernel_py, cli

    routes = []
    for name in ("sparse_mul", "echelon"):
        monkeypatch.setattr(
            _kernel_py,
            name,
            lambda *args, _f=getattr(_kernel_py, name), _n=name: routes.append(_n) or _f(*args),
        )
    specs = {e.value: _spec(e) for e in ExampleId if example_entry(e).kind == "op_spec"}
    specs.update((name, parse_spec(text)) for name, text in _ROUTE_SPECS.items())
    taken = {name: set() for name in specs}
    compared = 0
    for name, spec in specs.items():
        for k in range(1, 90):
            assert spec.weights.weight(k) == _fraction_weight(spec.weights, k)
        for n in range(max(2, spec.support() + 1), 91):
            pattern, values = shiftlab._section(spec, n)
            built = []

            def counted_values(_values=values):
                built.append(n)
                return _values()

            del routes[:]
            degree = nilpotency_degree_ints(pattern, lambda: counted_values()[1])
            kernel = finite_support_kernel(spec, n, section=(pattern, counted_values))
            taken[name].update(routes)
            if not routes:
                # the peel and the unique longest path read no value
                assert built == [], (name, n)
            old_den, old_rows = _fraction_section(spec, n)
            assert [set(cols) for cols in pattern] == [set(c) for c in _pattern_of(old_rows)]
            den, rows = values()
            expected = normalize(old_den, *dense_rows(n, old_rows))
            assert normalize(den, *dense_rows(n, rows)) == expected
            assert truncate(spec, n)._rep() == expected
            assert degree == _degree(old_rows), (name, n)
            assert kernel == _full_kernel(spec, n, old_den, old_rows), (name, n)
            if degree is None and n in (4, 47, 90):
                monkeypatch.setattr(cli, "paper_example", lambda _id, _s=spec: (_s, None))
                assert cli.main(["truncate", "EXNILP_T", "--sizes", str(n)]) == 2
                p, _ = _charpoly_rows(n, old_den, old_rows)
                assert capsys.readouterr().err.startswith(
                    f"error: EXNILP_T at n = {n}: charpoly {p.literal()} has nonzero roots"
                )
            compared += 1
    assert compared > 1200
    assert all(not taken[e.value] for e in ExampleId if example_entry(e).kind == "op_spec")
    assert taken["two longest paths"] == {"sparse_mul", "echelon"}
    assert {"sparse_mul", "echelon"} <= taken["cycle"]
    assert "sparse_mul" in taken["paths cancel"] and "sparse_mul" in taken["not nilpotent"]


def test_section_builds_no_fraction_per_weight(monkeypatch):
    spec = _spec(ExampleId.EXNILP_T)
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    shiftlab._section(spec, 320)[1]()
    assert built == []


def test_truncate_respects_support():
    spec = LTwoOpSpec(direction="none", finite_rank=((5, 1, Scalar(1)),))
    with pytest.raises(ValueError):
        truncate(spec, 4)
    assert truncate(spec, 5).entry(4, 0) == Scalar(1)


def test_registry_specs_truncate_to_expected_shapes():
    t = _spec(ExampleId.EXNILP_T)
    n = _spec(ExampleId.EXNILP_N)
    q = _spec(ExampleId.EXNILP_Q)
    tm = truncate(t, 6)
    assert tm.entry(1, 0) == Scalar(Fraction(1, 2))
    assert tm.entry(5, 4) == Scalar(Fraction(1, 6))
    nm = truncate(n, 6)
    assert nm.entry(1, 0) == Scalar(Fraction(-1, 2))
    assert sum(1 for i in range(6) for j in range(6) if not nm.entry(i, j).is_zero()) == 1
    qm = truncate(q, 6)
    assert qm.entry(1, 0) == Scalar(Fraction(-1, 2))
    assert qm.entry(3, 2) == Scalar(Fraction(-1, 4))
    assert qm.entry(5, 4) == Scalar(Fraction(-1, 6))
    assert qm.entry(2, 1).is_zero()


def test_spec_addition_merges():
    t = _spec(ExampleId.EXNILP_T)
    n = _spec(ExampleId.EXNILP_N)
    q = _spec(ExampleId.EXNILP_Q)
    tn = t + n
    assert truncate(tn, 8) == truncate(t, 8) + truncate(n, 8)
    tq = t + q
    assert truncate(tq, 8) == truncate(t, 8) + truncate(q, 8)
    # odd weights cancel exactly: 1/(k+1) - 1/(k+1) = 0
    assert tq.weights.odd is None
    assert tq.weights.even == (Fraction(1), 1)


def test_spec_addition_rejects_collisions():
    down = parse_spec("direction: down\nweights: 1/(k+1)\n")
    up = parse_spec("direction: up\nweights: 1/(k+1)\n")
    with pytest.raises(ValueError):
        down + up
    with pytest.raises(ValueError):
        down + parse_spec("direction: down\nweights: 1/(k+2)\n")


def test_truncation_charpoly_and_nilpotency():
    t = _spec(ExampleId.EXNILP_T)
    n = _spec(ExampleId.EXNILP_N)
    for size in (3, 6, 10):
        tm = truncate(t, size)
        assert charpoly(tm).literal() == f"x^{size}"
        assert nilpotency_degree(tm) == size
        tnm = truncate(t + n, size)
        assert charpoly(tnm).literal() == f"x^{size}"
    q = _spec(ExampleId.EXNILP_Q)
    for size in (4, 6, 10):
        qm = truncate(q, size)
        assert (qm * qm).is_zero()
        if size % 2 == 0:
            tqm = truncate(t + q, size)
            assert (tqm * tqm).is_zero()


def test_perturbed_shift_relation_flags():
    # the finite-rank perturbation puts N into one-sided commutation with T
    t = _spec(ExampleId.EXNILP_T)
    n = _spec(ExampleId.EXNILP_N)
    for size in (4, 6, 9):
        rep = relation_check(truncate(t, size), truncate(n, size))
        assert rep.ab_in_comm_b and rep.ba_in_comm_a
        assert not rep.comm


def test_finite_support_kernel_certifies_e1():
    t = _spec(ExampleId.EXNILP_T)
    n = _spec(ExampleId.EXNILP_N)
    tn = t + n
    for size in (4, 8, 12):
        ker = finite_support_kernel(tn, size)
        assert ker.dim == 1
        vec = ker.vectors[0]
        assert not vec[0].is_zero()
        assert all(vec[j].is_zero() for j in range(1, size))
    # T alone certifies nothing: its truncation kernel sits at the cut
    assert finite_support_kernel(t, 8).dim == 0


def test_finite_support_kernel_odd_coordinates():
    t = _spec(ExampleId.EXNILP_T)
    q = _spec(ExampleId.EXNILP_Q)
    tq = t + q
    assert finite_support_kernel(tq, 8).dim == 4
    assert finite_support_kernel(tq, 12).dim == 6


def _head_intersect_reference(spec, n):
    """Kernel of the n-truncation intersected with span(e_1, ..., e_(n-1))."""
    _, kernel, _ = rank_kernel(truncate(spec, n))
    head = SubspaceBasis.span(
        [[Scalar(1) if j == i else Scalar(0) for j in range(n)] for i in range(n - 1)],
        ambient=n,
    )
    return kernel.intersect(head)


def test_finite_support_kernel_matches_head_intersection():
    t = _spec(ExampleId.EXNILP_T)
    specs = {
        "T": t,
        "T+N": t + _spec(ExampleId.EXNILP_N),
        "T+Q": t + _spec(ExampleId.EXNILP_Q),
        "N": _spec(ExampleId.EXNILP_N),
        "Q": _spec(ExampleId.EXNILP_Q),
        "none": LTwoOpSpec(direction="none", finite_rank=((3, 3, Scalar(1)),)),
        # at n = 4 the kernel is x4 = x1 + x2: two basis vectors reach the cut
        "up": parse_spec(
            "direction: up\nweights: 1\n"
            "finite: 1 2 -1\nfinite: 2 3 -1\nfinite: 3 1 -1\nfinite: 3 2 -1\n"
        ),
    }
    at_cut = set()
    for name, spec in specs.items():
        for size in (*range(4, 25), 40, 80):
            got = finite_support_kernel(spec, size)
            assert got == _head_intersect_reference(spec, size), (name, size)
            _, kernel, _ = rank_kernel(truncate(spec, size))
            at_cut.add(sum(not v[-1].is_zero() for v in kernel.vectors))
    # kernels with none, one and several basis vectors at the cut are covered
    assert {0, 1, 2} <= at_cut


def test_finite_support_kernel_validation():
    spec = LTwoOpSpec(direction="none", finite_rank=((3, 3, Scalar(1)),))
    with pytest.raises(ValueError):
        finite_support_kernel(spec, 3)  # need room past the support
    # kernel of the 4-truncation is {e1, e2, e4}; the head window keeps two
    assert finite_support_kernel(spec, 4).dim == 2


def test_kernel_vectors_annihilated_in_larger_truncations():
    # certified vectors stay kernel vectors after zero-padding upward
    t = _spec(ExampleId.EXNILP_T)
    n = _spec(ExampleId.EXNILP_N)
    tn = t + n
    small = finite_support_kernel(tn, 6)
    big = truncate(tn, 12)
    for vec in small.vectors:
        padded = list(vec) + [Scalar(0)] * 6
        image = [
            sum((FieldScalar.coerce(big.entry(i, j)) * padded[j] for j in range(12)), 0)
            for i in range(12)
        ]
        assert all(x.is_zero() for x in image)
