"""Span accounting for the traced benchmark pass.

The benchmark times each layer of ``bosonfermion`` from the outside: it
replaces the layer's public functions with wrappers that open a span around
the call.  Nothing in the package itself changes.

Each wrapped call has two intervals.  The inner one surrounds the wrapped
call only; the outer one also covers the wrapper's own bookkeeping (reading
argument and result sizes).  The accounting below is exact for properly
nested spans:

- ``total_s`` of a function is the inner duration of its outermost active
  call, minus the bookkeeping of every span nested in it; recursive calls
  are not counted twice.
- ``self_s`` is the inner duration minus the outer durations of the direct
  child spans, so it never includes bookkeeping.
- a layer's inclusive time is the union of its spans, computed the same way
  as ``total_s`` but over every function of the layer.

Pass wall time = sum of all self times + bookkeeping + time outside every
span; the last term is reported as ``unattributed_s``.  Time the benchmark
spends measuring inside a span (``exclude``) is booked apart, like
bookkeeping.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "bosonfermion"

# layer -> wrapped attribute paths within the layer's module.  Methods are
# named ``Class.method``; the metric name drops dunder underscores.
LAYERS = {
    "fock": ("psi", "psi_star", "boson_psi", "boson_psi_star"),
    "symfunc": ("bernstein", "bernstein_star", "multiply", "skew"),
    "linalg": ("SMat.from_entries", "SMat.__matmul__", "rref", "rank",
               "idempotent_image"),
    "symrep": ("specht_module", "left_mult_matrix", "induce",
               "right_mult_map", "p_lambda", "young_idempotent",
               "frobenius_char"),
    "branching": ("word_module", "_lift_matrix"),
    "homalg": ("totalize", "Complex.betti", "Complex.homology_module",
               "Complex.homology_complex", "Complex.euler_frobenius"),
    "catbernstein": ("compose_bernstein", "sigma_complex", "apply_sigma"),
}

# Size counters per function, summed over calls.  They repeat exactly from
# run to run, so a later change can show that it did less work.
#   nnz_in  nonzeros of the matrix arguments (entries given, for from_entries)
#   dim_in  rows x cols of the matrix arguments
#   nnz     nonzeros of the matrices returned
#   dim_out dimension of the module (or rows of the matrix) returned
SIZES = {
    "linalg.SMat.from_entries": ("nnz_in", "dim_in", "nnz"),
    "linalg.SMat.matmul": ("nnz_in", "dim_in", "nnz"),
    "linalg.rref": ("nnz_in", "dim_in", "nnz"),
    "linalg.rank": ("nnz_in", "dim_in"),
    "linalg.idempotent_image": ("nnz_in", "dim_in", "nnz"),
    "symrep.specht_module": ("dim_out",),
    "symrep.left_mult_matrix": ("dim_out",),
    "symrep.induce": ("dim_out",),
    "symrep.right_mult_map": ("dim_out",),
    "symrep.p_lambda": ("dim_out",),
    "branching.word_module": ("dim_out",),
    "branching._lift_matrix": ("dim_out",),
    "homalg.totalize": ("dim_out",),
    "homalg.Complex.betti": ("dim_out",),
    "homalg.Complex.homology_module": ("dim_out",),
    "homalg.Complex.homology_complex": ("dim_out",),
}


def metric_name(layer, path):
    return f"{layer}.{path.replace('__', '')}"


def function_names():
    return [metric_name(layer, p) for layer, paths in LAYERS.items()
            for p in paths]


class Tracer:
    """Per-function and per-layer span statistics for one pass."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.sizes = Counter()
        self.layer_total = defaultdict(float)
        self.bookkeeping = 0.0
        self.excluded = 0.0
        self._stack = []          # frames: [name, layer, inner_start, covered, bk_inside]
        self._active = Counter()  # name -> open spans
        self._layer_active = Counter()

    def open(self, name, layer, inner_start):
        self._stack.append([name, layer, inner_start, 0.0, 0.0])
        self._active[name] += 1
        self._layer_active[layer] += 1

    def close(self, inner_end, outer_start, outer_end, sizes=None):
        """Close the innermost span.  ``outer_*`` bound the whole wrapper."""
        name, layer, inner_start, covered, bk_inside = self._stack.pop()
        inner = inner_end - inner_start
        own_bk = (outer_end - outer_start) - inner
        self.calls[name] += 1
        self.self_time[name] += inner - covered
        self._active[name] -= 1
        if not self._active[name]:
            self.total[name] += inner - bk_inside
        self._layer_active[layer] -= 1
        if not self._layer_active[layer]:
            self.layer_total[layer] += inner - bk_inside
        self.bookkeeping += own_bk
        if sizes:
            for key, value in sizes.items():
                self.sizes[f"{name}.{key}"] += value
        if self._stack:
            parent = self._stack[-1]
            parent[3] += outer_end - outer_start
            parent[4] += bk_inside + own_bk

    def exclude(self, seconds):
        """Book ``seconds`` just spent on measurement apart, so they leave
        the self and total times of the open spans."""
        self.excluded += seconds
        if self._stack:
            self._stack[-1][3] += seconds
            self._stack[-1][4] += seconds

    def attributed(self):
        """Self times plus bookkeeping plus excluded time so far."""
        return (sum(self.self_time.values()) + self.bookkeeping
                + self.excluded)

    def snapshot(self):
        """Span counts and size counters so far (for per-instance sizes)."""
        out = Counter(self.sizes)
        for name, n in self.calls.items():
            out[f"{name}.calls"] += n
        return out

    def to_json_obj(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "sizes": dict(self.sizes),
            "layer_total_s": dict(self.layer_total),
            "bookkeeping_s": self.bookkeeping,
        }


# -- size readers --------------------------------------------------------------


def _matrices(obj):
    """The SMat objects in a value (a matrix, a module map, or a tuple)."""
    from bosonfermion.linalg import SMat
    from bosonfermion.symrep import ModuleMap

    if isinstance(obj, SMat):
        return [obj]
    if isinstance(obj, ModuleMap):
        return [obj.matrix]
    if isinstance(obj, (tuple, list)):
        return [m for x in obj for m in _matrices(x)]
    return []


def _dim(obj):
    from bosonfermion.homalg import Complex
    from bosonfermion.linalg import SMat
    from bosonfermion.symrep import ModuleMap, RepModule

    if isinstance(obj, RepModule):
        return obj.dim
    if isinstance(obj, SMat):
        return obj.nrows
    if isinstance(obj, ModuleMap):
        return obj.target.dim
    if isinstance(obj, Complex):
        return obj.total_dim()
    if isinstance(obj, dict):
        return sum(obj.values())
    if isinstance(obj, tuple):
        return _dim(obj[0])
    raise TypeError(f"no size rule for {type(obj).__name__}")


def _input_sizes(name, args):
    if name == "linalg.SMat.from_entries":
        nrows, ncols, entries = args
        return {"nnz_in": len(entries), "dim_in": nrows * ncols}
    mats = _matrices(args)
    return {"nnz_in": sum(m.nnz() for m in mats),
            "dim_in": sum(m.nrows * m.ncols for m in mats)}


def _output_sizes(keys, out):
    sizes = {}
    if "nnz" in keys:
        sizes["nnz"] = sum(m.nnz() for m in _matrices(out))
    if "dim_out" in keys:
        sizes["dim_out"] = _dim(out)
    return sizes


# -- wrapping ------------------------------------------------------------------


def _wrapper(tracer, name, layer, fn):
    keys = SIZES.get(name, ())
    clock = time.perf_counter
    wants_input = "nnz_in" in keys

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outer_start = clock()
        if name == "linalg.SMat.from_entries":
            # the entries may be a generator: materialize it to count it
            args = (args[0], args[1], list(args[2]))
        pre = _input_sizes(name, args) if wants_input else {}
        tracer.open(name, layer, clock())
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            end = clock()
            tracer.close(end, outer_start, end)
            raise
        inner_end = clock()
        sizes = dict(pre, **_output_sizes(keys, out)) if keys else None
        tracer.close(inner_end, outer_start, clock(), sizes)
        return out

    return traced


def install(tracer):
    """Wrap every function in LAYERS and rebind it wherever it is bound.

    The package imports names with ``from .x import y``, so each module that
    imported a function holds its own binding; every one of them is
    replaced.  Methods are replaced on their class.  Returns the list of
    ``(owner, attribute, original)`` needed to undo the change.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == PACKAGE or n.startswith(PACKAGE + ".")) and m]
    undo = []
    for layer, paths in LAYERS.items():
        home = sys.modules[f"{PACKAGE}.{layer}"]
        for path in paths:
            name = metric_name(layer, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(_wrapper(tracer, name, layer,
                                                raw.__func__))
                else:
                    new = _wrapper(tracer, name, layer, raw)
                setattr(cls, attr, new)
                undo.append((cls, attr, raw))
                continue
            original = getattr(home, path)
            new = _wrapper(tracer, name, layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, new)
                        undo.append((mod, attr, original))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
