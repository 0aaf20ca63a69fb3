"""Spans around the public functions of each weakcomm layer, patched from outside.

The tracer replaces each target function with a wrapper that records a span
(name, start, end, parent) and restores the original afterwards. A module
level function is replaced at every binding site, that is in every loaded
``weakcomm`` module whose namespace holds the same object, so names imported
with ``from .x import f`` are traced too. A method is replaced on the class
that defines it. A target that no longer exists is reported as absent.

Spans of one command are kept in memory until the command ends, then folded
into per-name call counts and self times (span duration minus the time its
child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path). The kernel module is whatever
# ``weakcomm._backend.kernel`` resolves to; metrics call it ``kernel``.
KERNEL = "kernel"
KERNEL_FUNCS = (
    "mat_mul", "mat_add", "mat_sub", "mat_scale", "mat_pow",
    "normalize", "charpoly_ints", "echelon",
)
TARGETS = (
    *((KERNEL, KERNEL, name) for name in KERNEL_FUNCS),
    ("exact", "weakcomm.exact", "ExactMatrix.__init__"),
    ("exact", "weakcomm.exact", "ExactMatrix.single_entry"),
    ("exact", "weakcomm.exact", "charpoly"),
    ("exact", "weakcomm.exact", "rank_kernel"),
    ("exact", "weakcomm.exact", "nilpotency_degree"),
    ("exact", "weakcomm.exact", "ExactPoly.__mul__"),
    ("exact", "weakcomm.exact", "ExactPoly.__divmod__"),
    ("exact", "weakcomm.exact", "ExactPoly.gcd"),
    ("exact", "weakcomm.exact", "ExactPoly.squarefree_part"),
    ("exact", "weakcomm.exact", "ExactPoly.eval_matrix"),
    ("exact", "weakcomm.exact", "SubspaceBasis.span"),
    ("exact", "weakcomm.exact", "SubspaceBasis.intersect"),
    ("exact", "weakcomm.exact", "SubspaceBasis.contains"),
    ("exact", "weakcomm.exact", "SubspaceBasis.image_under"),
    ("relations", "weakcomm.relations", "relation_check"),
    ("identities", "weakcomm.identities", "verify_suite"),
    ("structure", "weakcomm.structure", "kernel_inclusion_forward"),
    ("structure", "weakcomm.structure", "kernel_inclusion_reverse"),
    ("structure", "weakcomm.structure", "range_kernel_criterion"),
    ("structure", "weakcomm.structure", "nonzero_spectrum_equal_exact"),
    ("structure", "weakcomm.structure", "full_spectrum_equal_exact"),
    ("numeric", "weakcomm.numeric", "spectral_radius_exact"),
    ("numeric", "weakcomm.numeric", "eigenvalues"),
    ("numeric", "weakcomm.numeric", "CMatrix.from_exact"),
    ("instances", "weakcomm.instances", "sample_pair"),
    ("instances", "weakcomm.instances", "search_witness"),
    ("shiftlab", "weakcomm.shiftlab", "truncate"),
    ("shiftlab", "weakcomm.shiftlab", "finite_support_kernel"),
    ("cli", "weakcomm.cli", "render"),
)
SCALAR_COUNT = "scalar.Scalar.constructed"
# kernel functions whose result is a (den, re, im) matrix, and echelon,
# whose result carries a fraction-free integer matrix
_REP_RESULTS = {"mat_mul", "mat_add", "mat_sub", "mat_scale", "mat_pow", "normalize"}
_SAMPLE_PAIR = "instances.sample_pair"
_SEARCH = "instances.search_witness"
_RELATION_CHECK = "relations.relation_check"


def span_names():
    return [f"{prefix}.{path}" for prefix, _, path in TARGETS]


def metric_units():
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[SCALAR_COUNT] = "count"
    units["exact.max_den_bits"] = "bits"
    units["exact.max_entry_bits"] = "bits"
    units[f"{_SAMPLE_PAIR}.checks_per_accept"] = "ratio"
    units[f"{_SEARCH}.hit_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def _resolve_module(modname):
    if modname == KERNEL:
        try:
            return importlib.import_module("weakcomm._backend").kernel
        except (ImportError, AttributeError):
            return importlib.import_module("weakcomm._kernel_py")
    return importlib.import_module(modname)


def _bits(values):
    return max(max(values, default=0), -min(values, default=0)).bit_length()


class Tracer:
    """Installs span wrappers on the targets and folds spans into totals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.absent = []
        self.scalar_count = 0
        self.max_den_bits = 0
        self.max_entry_bits = 0
        self.accepted_pairs = 0
        self.witnesses_found = 0
        self.pairs_screened = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.sample_pair_checks = 0
        self.span_errors = 0

    # -- installing -------------------------------------------------------------

    def install(self):
        self.absent = []
        for prefix, modname, path in TARGETS:
            name = f"{prefix}.{path}"
            try:
                owner = _resolve_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    self._patch_method(name, owner, attr)
                else:
                    self._patch_function(name, owner, attr, prefix == KERNEL)
            except (ImportError, AttributeError):
                self.absent.append(name)
        try:
            from weakcomm.scalar import Scalar

            self._count_scalars(Scalar)
        except (ImportError, KeyError):
            self.absent.append(SCALAR_COUNT)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_function(self, name, module, attr, is_kernel):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, attr if is_kernel else None)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "weakcomm" and not modname.startswith("weakcomm."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, name, cls, attr):
        owner = next((c for c in cls.__mro__ if attr in vars(c)), None)
        if owner is None:
            raise AttributeError(f"{cls.__name__}.{attr}")
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _count_scalars(self, cls):
        original = vars(cls)["__init__"]
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.scalar_count += 1
            return original(*args, **kwargs)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = counted

    def _wrap(self, name, fn, kernel_name=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if kernel_name is not None:
                tracer._read_bits(kernel_name, result)
            elif name == _SAMPLE_PAIR:
                tracer.accepted_pairs += 1
            elif name == _SEARCH:
                tracer._count_search(fn, args, kwargs, result)
            return result

        return wrapper

    # -- counters read from results ---------------------------------------------

    def _read_bits(self, kernel_name, result):
        try:
            if kernel_name in _REP_RESULTS:
                den, re, im = result
                self.max_den_bits = max(self.max_den_bits, int(den).bit_length())
            elif kernel_name == "echelon":
                _, _, re, im = result
            else:
                return
            self.max_entry_bits = max(self.max_entry_bits, _bits(re), _bits(im))
        except (TypeError, ValueError):
            pass

    def _count_search(self, fn, args, kwargs, record):
        try:
            if record is not None:
                screened = record.samples_tried
            else:
                screened = inspect.signature(fn).bind(*args, **kwargs).arguments["budget"]
        except (AttributeError, TypeError, KeyError):
            return  # a changed signature leaves the ratio to the calls that still fit
        self.witnesses_found += record is not None
        self.pairs_screened += screened

    # -- folding spans ----------------------------------------------------------

    def fold(self):
        """Fold the spans of the finished command into totals, then drop them."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for idx, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                p = spans[parent]
                if parent >= idx or start < p[1] or end > p[2]:
                    self.span_errors += 1
                child_time[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(spans):
            own = end - start - child_time[idx]
            if own < -1e-9:
                self.span_errors += 1
            self.calls[name] += 1
            self.self_s[name] += own
            if name == _RELATION_CHECK and self._under(idx, _SAMPLE_PAIR):
                self.sample_pair_checks += 1
        spans.clear()

    def _under(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self, overhead_s):
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out[SCALAR_COUNT] = self.scalar_count
        out["exact.max_den_bits"] = self.max_den_bits
        out["exact.max_entry_bits"] = self.max_entry_bits
        out[f"{_SAMPLE_PAIR}.checks_per_accept"] = (
            self.sample_pair_checks / self.accepted_pairs if self.accepted_pairs else 0.0
        )
        out[f"{_SEARCH}.hit_ratio"] = (
            self.witnesses_found / self.pairs_screened if self.pairs_screened else 0.0
        )
        out["trace.overhead_s"] = overhead_s
        return out
