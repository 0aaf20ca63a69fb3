"""Floating-point layer: eigenvalue clustering, radii, exponentials."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from weakcomm import _kernel_py
from weakcomm.exact import ExactMatrix, Scalar, exp_exact_nilpotent
from weakcomm.numeric import CMatrix, SpectrumSet, eigenvalues, spectral_radius_exact
from weakcomm.errors import DimensionMismatchError

from field_scalar import FieldScalar
from float_oracle import expm


def test_cmatrix_construction_and_entry():
    m = CMatrix([[1, 2j], [3, 4]])
    assert m.dim == 2
    assert m.entry(0, 1) == 2j
    assert m.entry(1, 0) == 3 + 0j


def test_cmatrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatchError):
        CMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        CMatrix([[float("nan"), 0], [0, 0]])
    with pytest.raises(ValueError):
        CMatrix([[float("inf"), 0], [0, 0]])


def test_cmatrix_immutable():
    m = CMatrix([[1, 0], [0, 1]])
    with pytest.raises(AttributeError):
        m._a = None
    with pytest.raises(ValueError):
        m.array[0, 0] = 5


def test_cmatrix_arithmetic():
    a = CMatrix([[1, 2], [3, 4]])
    b = CMatrix([[0, 1], [1, 0]])
    assert np.allclose((a + b).array, [[1, 3], [4, 4]])
    assert np.allclose((a - b).array, [[1, 1], [2, 4]])
    assert np.allclose((a * b).array, [[2, 1], [4, 3]])
    assert np.allclose((a @ b).array, [[2, 1], [4, 3]])
    assert np.allclose((2 * a).array, (a * 2).array)
    assert np.allclose((-a).array, [[-1, -2], [-3, -4]])
    assert math.isclose(a.frobenius(), math.sqrt(30))


def test_cmatrix_dim_mismatch():
    a = CMatrix([[1]])
    b = CMatrix([[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatchError):
        a + b
    with pytest.raises(DimensionMismatchError):
        a - b
    with pytest.raises(DimensionMismatchError):
        a * b
    with pytest.raises(DimensionMismatchError):
        b @ a


def test_from_exact_round_trip():
    e = ExactMatrix.parse("1/2,-3i;0,2/3+1i")
    m = CMatrix.from_exact(e)
    assert m.entry(0, 0) == 0.5
    assert m.entry(0, 1) == -3j
    assert m.entry(1, 1) == complex(2 / 3, 1)


def test_from_exact_matches_entry_route():
    rng = random.Random(29)
    seen = set()
    for trial in range(300):
        d = rng.randint(1, 4)
        bits = rng.choice((3, 40, 620, 1100))
        den = rng.choice((1, rng.randint(2, 50), rng.getrandbits(rng.randint(1, 80)) | 1))
        re = [rng.randint(-(1 << bits), 1 << bits) for _ in range(d * d)]
        if trial % 2:
            im = [rng.randint(-(1 << bits), 1 << bits) for _ in range(d * d)]
        else:
            im = [0] * (d * d)
        m = ExactMatrix._from_rep(d, _kernel_py.normalize(den, re, im))

        def by_entry(m):
            d = m.dim
            return [[complex(FieldScalar.coerce(m.entry(i, j))) for j in range(d)]
                    for i in range(d)]

        expected = _outcome(by_entry, m)
        assert _outcome(lambda m: CMatrix.from_exact(m).array.tolist(), m) == expected
        seen.add((bits, m._den > 1, expected == "overflow"))
    # den > 1 with entries above 2**600, in range and overflowing
    assert {(620, True, False), (1100, True, True)} <= seen


def _outcome(convert, m):
    try:
        return convert(m)
    except OverflowError:
        return "overflow"


def test_spectrum_clustering_merges_near_points():
    s = SpectrumSet([1.0, 1.0 + 1e-12, 2.0], cluster_tol=1e-8)
    assert len(s.points) == 2
    assert s.total_multiplicity() == 3
    mults = sorted(m for _, m in s.points)
    assert mults == [1, 2]


def test_spectrum_clustering_keeps_distant_points():
    s = SpectrumSet([0.0, 1.0, 1j], cluster_tol=1e-8)
    assert len(s.points) == 3
    assert s.max_modulus() == pytest.approx(1.0)


def test_spectrum_points_sorted():
    s = SpectrumSet([3.0, -1.0, 1j, 0.0])
    reps = s.representatives()
    keys = [(z.real, z.imag) for z in reps]
    assert keys == sorted(keys)


def test_eigenvalues_diagonal():
    s = eigenvalues(CMatrix([[2, 0], [0, 5]]))
    assert sorted(z.real for z in s.representatives()) == pytest.approx([2.0, 5.0])


def test_eigenvalues_rotation_pair():
    s = eigenvalues(CMatrix([[0, -1], [1, 0]]))
    reps = sorted(s.representatives(), key=lambda z: z.imag)
    assert reps[0] == pytest.approx(-1j)
    assert reps[1] == pytest.approx(1j)


def test_spectral_radius_exact_on_defective_matrix():
    # charpoly (x-1)^2; LAPACK eigenvalues of this defective matrix are
    # off by ~1e-8, the exact squarefree route must be clean.
    m = ExactMatrix.parse("-1,4;-1,3")
    r = spectral_radius_exact(m)
    assert abs(r - 1.0) < 1e-12
    approx = eigenvalues(CMatrix.from_exact(m)).max_modulus()
    assert abs(approx - 1.0) < 1e-6


def test_spectral_radius_exact_nilpotent_is_zero():
    m = ExactMatrix.single_entry(3, 1, 0)
    assert spectral_radius_exact(m) == 0.0


def test_spectral_radius_exact_matches_numeric_on_diagonalizable():
    m = ExactMatrix.parse("1,2;3,4")
    assert spectral_radius_exact(m) == pytest.approx(
        eigenvalues(CMatrix.from_exact(m)).max_modulus(), abs=1e-10
    )


def test_spectral_radius_exact_is_root_modulus_of_radical():
    from weakcomm.exact import charpoly, poly_radical

    for lit in ("-1,4;-1,3", "0,1;0,0", "2,0,0;0,-3,1;0,0,-3", "0,-1;1,0"):
        m = ExactMatrix.parse(lit)
        coeffs = [complex(float(c.re), float(c.im)) for c in poly_radical(charpoly(m)).coeffs]
        assert spectral_radius_exact(m) == float(np.max(np.abs(np.roots(coeffs[::-1]))))


def test_import_does_not_load_scipy():
    code = (
        "import sys, weakcomm, weakcomm.cli, weakcomm.numeric\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_expm_zero_is_identity():
    m = expm(CMatrix([[0, 0], [0, 0]]))
    assert np.allclose(m.array, np.eye(2))


def test_expm_matches_exact_on_nilpotent():
    n = ExactMatrix.single_entry(3, 1, 0, Scalar(Fraction(1, 2))) + ExactMatrix.single_entry(
        3, 2, 1, Scalar(Fraction(1, 3))
    )
    exact = exp_exact_nilpotent(n)
    approx = expm(CMatrix.from_exact(n))
    diff = approx - CMatrix.from_exact(exact)
    assert diff.frobenius() < 1e-13


def test_expm_scalar_block():
    m = expm(CMatrix([[1, 0], [0, 2]]))
    assert m.entry(0, 0) == pytest.approx(math.e)
    assert m.entry(1, 1) == pytest.approx(math.e**2)
