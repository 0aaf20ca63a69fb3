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
structure (kernels, ranges, spectra), registry (the paper's examples),
instances (samplers and witness search), shiftlab (operator truncations),
cli (batch entry point). They need only the standard library. numeric, a
floating twin for the tests, is the one module that imports NumPy; the
package does not import it.

Importing the package loads none of its modules. Each public name below is
imported from its module on first access (PEP 562), so a caller pays only
for the layers it uses, and every layer stands on the arithmetic core
(scalar, exact and its integer kernel). The registry loads the core,
relations and shiftlab, and the cli loads the registry: its example and
truncate commands run on that set. search loads the samplers (instances),
and verify loads them and identities, which adds structure and algebraic.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_LAYERS = {
    "scalar": ("Scalar",),
    "exact": (
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
    ),
    "relations": ("RelationReport", "relation_check", "relation_flags"),
    "identities": (
        "IdentityId",
        "IdentityResult",
        "SuiteReport",
        "check_identity",
        "identity_catalog",
        "verify_suite",
    ),
    "structure": (
        "ChainProfile",
        "chain_profile",
        "dis_propagation",
        "full_spectrum_equal_exact",
        "invariant_restriction",
        "kernel_inclusion_forward",
        "kernel_inclusion_reverse",
        "nonzero_spectrum_equal_exact",
        "range_kernel_criterion",
    ),
    "registry": ("ExampleId", "paper_example", "registry_self_test"),
    "instances": (
        "RelationClass",
        "WitnessRecord",
        "sample_pair",
        "sample_spectral_instance",
        "search_witness",
    ),
    "shiftlab": (
        "LTwoOpSpec",
        "WeightRule",
        "finite_support_kernel",
        "format_spec",
        "parse_spec",
        "truncate",
    ),
}
_HOME = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    # looked up on every access and never bound here, so a name always
    # reads as its module holds it now
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
