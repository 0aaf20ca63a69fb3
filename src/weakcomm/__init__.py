"""Exact verification laboratory for weak commutation relations.

A pair (a, b) of square matrices can fail to commute while selected
products still commute with selected factors: ab with a, ba with b, and so
on. This package pins down those one-sided and weak relation classes with
exact Gaussian-rational arithmetic, verifies the algebraic identities they
force, samples random pairs inside each class, replays a registry of fixed
examples, and studies truncations of weighted-shift operators whose
spectral behavior separates the classes.

Modules: scalar (literals), exact (arithmetic core),
algebraic (exact spectral-radius bounds), relations (class flags),
identities (checkable identity catalog),
structure (kernels, ranges, spectra), instances (registry and samplers),
shiftlab (operator truncations), cli (batch entry point). They need only
the standard library. numeric, a floating twin for the tests, is the one
module that imports NumPy; the package does not import it.
"""

from .scalar import Scalar
from .exact import (
    ExactMatrix,
    ExactPoly,
    SubspaceBasis,
    charpoly,
    exp_exact_nilpotent,
    inverse,
    nilpotency_degree,
    poly_radical,
    poly_radical_nonzero,
    rank_kernel,
)
from .relations import RelationReport, relation_check, relation_flags
from .identities import (
    IdentityId,
    IdentityResult,
    SuiteReport,
    check_identity,
    identity_catalog,
    verify_suite,
)
from .structure import (
    ChainProfile,
    chain_profile,
    dis_propagation,
    full_spectrum_equal_exact,
    invariant_restriction,
    kernel_inclusion_forward,
    kernel_inclusion_reverse,
    nonzero_spectrum_equal_exact,
    range_kernel_criterion,
)
from .instances import (
    ExampleId,
    RelationClass,
    WitnessRecord,
    paper_example,
    registry_self_test,
    sample_pair,
    sample_spectral_instance,
    search_witness,
)
from .shiftlab import (
    LTwoOpSpec,
    WeightRule,
    finite_support_kernel,
    format_spec,
    parse_spec,
    truncate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Scalar",
    "ExactMatrix",
    "ExactPoly",
    "SubspaceBasis",
    "charpoly",
    "exp_exact_nilpotent",
    "inverse",
    "nilpotency_degree",
    "poly_radical",
    "poly_radical_nonzero",
    "rank_kernel",
    "RelationReport",
    "relation_check",
    "relation_flags",
    "IdentityId",
    "IdentityResult",
    "SuiteReport",
    "check_identity",
    "identity_catalog",
    "verify_suite",
    "ChainProfile",
    "chain_profile",
    "dis_propagation",
    "full_spectrum_equal_exact",
    "invariant_restriction",
    "kernel_inclusion_forward",
    "kernel_inclusion_reverse",
    "nonzero_spectrum_equal_exact",
    "range_kernel_criterion",
    "ExampleId",
    "RelationClass",
    "WitnessRecord",
    "paper_example",
    "registry_self_test",
    "sample_pair",
    "sample_spectral_instance",
    "search_witness",
    "LTwoOpSpec",
    "WeightRule",
    "finite_support_kernel",
    "format_spec",
    "parse_spec",
    "truncate",
]
