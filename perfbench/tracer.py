"""Span tracing of the package's layers from outside ``src/``.

:meth:`Tracer.install` wraps every public function of the layer modules
(``cli``, ``jsonio``, ``invariant``, ``diagram``, ``repcat``, ``tqftdim``)
and the scalar methods of ``qscalar.RootParams``, and rebinds each wrapper
in every ``unrolledsl2`` module namespace that holds the original (for
example ``cli.f_prime``, ``invariant.evaluate_cut`` and ``diagram.braiding``),
so calls between modules go through the wrappers.  Nothing under ``src/``
is edited; :meth:`Tracer.uninstall` restores every binding.

Each call becomes a span (name, start, end, parent id, document id, error
class) kept in memory and written out at the end.  Self time is a span's
duration minus the time its child spans cover.  Scalar methods are traced
only at the outermost ``qscalar`` call, so a ``mdim`` span includes the
``q_num`` calls it makes.  A few functions carry a hook that records what
the layer metrics need (braiding color pairs, Schur residuals, tensor widths
from ``typecheck``, grid sizes); hook time is charged to no layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "jsonio", "invariant", "diagram", "repcat", "qscalar", "tqftdim")
QSCALAR_METHODS = (
    "q_pow", "q_num", "bracket", "q_num_factorial", "mdim", "nearest_int",
    "is_near_int", "is_congruent_mod2", "is_projective_color", "constants",
    "h_r_set", "close",
)
BYTES_PER_ELEM = 16  # complex128


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, t0, t1, covered until, parent, doc, error)
        self.stack: list[int] = []
        self.doc = -1
        self.in_qscalar = False
        self.patched: list = []
        self.braid_pairs: dict = defaultdict(set)
        self.braid_inverse = 0
        self.schur_residuals: list[float] = []
        self.cut_tensors: list[tuple] = []  # (peak elements, total bytes) per evaluate_cut
        self.grids: list[tuple] = []  # (cells, vertices) per graded_dimension

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(nid)  # replaced by the full record when the call ends
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                if hook is not None:
                    hook(parent, args, kwargs, result, error)
                spans[sid] = (nid, t0, t1, clock(), parent, self.doc, error)

        return traced

    def _wrap_qscalar(self, name: str, fn):
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def outermost(*args, **kwargs):
            if self.in_qscalar:
                return fn(*args, **kwargs)
            self.in_qscalar = True
            try:
                return traced(*args, **kwargs)
            finally:
                self.in_qscalar = False

        return outermost

    def install(self) -> None:
        modules = {name: importlib.import_module(f"unrolledsl2.{name}") for name in LAYERS}
        hooks = {
            "repcat.braiding": self._hook_braiding,
            "repcat.scalar_of": self._hook_scalar_of,
            "diagram.evaluate_cut": self._hook_evaluate_cut,
            "tqftdim.graded_dimension": self._hook_grid,
        }
        wrappers = {}
        for layer, module in modules.items():
            if layer == "qscalar":
                continue
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        self._original_typecheck = modules["diagram"].typecheck
        root_params = modules["qscalar"].RootParams
        for attr in QSCALAR_METHODS:
            original = root_params.__dict__[attr]
            self.patched.append((root_params, attr, original))
            setattr(root_params, attr, self._wrap_qscalar(f"qscalar.{attr}", original))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "unrolledsl2"
                                      or mod_name.startswith("unrolledsl2.")):
                continue
            for attr, obj in list(vars(module).items()):
                if callable(obj) and id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self.patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def per_document(self, main):
        """``main`` with a fresh document id per call."""

        def run(argv):
            self.doc += 1
            return main(argv)

        return run

    # ------------------------------------------------------------------
    # hooks (run after the span's end time is taken)
    # ------------------------------------------------------------------

    def _parent_name(self, parent: int):
        if parent < 0:
            return None
        entry = self.spans[parent]  # an open span still holds its name id
        return self.names[entry if isinstance(entry, int) else entry[0]]

    def _hook_braiding(self, parent, args, kwargs, result, error):
        if self._parent_name(parent) == "repcat.braiding":
            return  # the inner forward braiding of a negative crossing
        a, b = args[0], args[1]
        sign = args[2] if len(args) > 2 else kwargs.get("sign", 1)
        self.braid_pairs[self.doc].add((a.label, b.label, sign))
        self.braid_inverse += sign == -1

    def _hook_scalar_of(self, parent, args, kwargs, result, error):
        matrix = np.asarray(args[0])
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            return
        s = complex(np.trace(matrix)) / matrix.shape[0]
        residual = float(np.max(np.abs(matrix - s * np.eye(matrix.shape[0]))))
        self.schur_residuals.append(residual / max(1.0, abs(s)))

    def _hook_evaluate_cut(self, parent, args, kwargs, result, error):
        if error is not None:
            return
        diagram, colors, ctx, cut_slice = args[:4]
        words = self._original_typecheck(diagram)

        def dim(strand):
            module = colors[strand.component]
            return getattr(module, "dim", ctx.r)

        cut_dim = ctx.r
        peak = total = 0
        for index, word in enumerate(words[1:]):
            elems = 1
            for strand in word:
                elems *= dim(strand)
            if index >= cut_slice:
                elems *= cut_dim * cut_dim
            peak = max(peak, elems)
            total += elems * BYTES_PER_ELEM
        self.cut_tensors.append((peak, total))

    def _hook_grid(self, parent, args, kwargs, result, error):
        graph = args[0]
        edges = [e for e in graph.internal_edges if not e.is_circle]
        self.grids.append((graph.ctx.rprime ** len(edges), len(graph.vertex_order)))

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """All spans as gzipped TSV: id, name, start, end, parent, doc, error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tdoc\terror\n")
            for sid, (nid, t0, t1, _cov, parent, doc, error) in enumerate(self.spans):
                fh.write(f"{sid}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{doc}\t"
                         f"{error or ''}\n")

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, plus hook records."""
        names = self.names
        child_cover = [0.0] * len(self.spans)
        for nid, t0, t1, covered, parent, doc, error in self.spans:
            if parent >= 0:
                child_cover[parent] += covered - t0
        funcs: dict = {}
        for sid, (nid, t0, t1, covered, parent, doc, error) in enumerate(self.spans):
            name = names[nid]
            f = funcs.setdefault(name, {"calls": 0, "outer_calls": 0, "incl_s": 0.0,
                                        "self_s": 0.0, "errors": {}})
            f["calls"] += 1
            f["self_s"] += (t1 - t0) - child_cover[sid]
            # inclusive time counts a span only when no ancestor has the same name
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == nid:
                    nested = True
                    break
                ancestor = self.spans[ancestor][4]
            if not nested:
                f["outer_calls"] += 1
                f["incl_s"] += t1 - t0
            if error:
                f["errors"][error] = f["errors"].get(error, 0) + 1
        return {
            "functions": funcs,
            "groups": self._group_times(),
            "braid_distinct": sum(len(v) for v in self.braid_pairs.values()),
            "braid_inverse": self.braid_inverse,
            "schur_residuals": self.schur_residuals,
            "cut_tensors": self.cut_tensors,
            "grids": self.grids,
            "spans": len(self.spans),
        }

    def _group_times(self) -> dict:
        """Inclusive seconds of the outermost span of each name group."""
        groups = {
            "jsonio.parse": lambda n: n == "jsonio.load_document" or n.startswith("jsonio.parse_"),
            "jsonio.emit": lambda n: n == "jsonio.dump_document" or n.endswith("_to_json"),
            "invariant.linking": lambda n: n in ("invariant.linking_data",
                                                 "invariant.computability_failure",
                                                 "invariant.computability_check",
                                                 "invariant.signature_pair_exact"),
        }
        member = {g: [test(n) for n in self.names] for g, test in groups.items()}
        out = {}
        for group, is_member in member.items():
            total = 0.0
            for nid, t0, t1, covered, parent, doc, error in self.spans:
                if not is_member[nid]:
                    continue
                ancestor = parent
                while ancestor >= 0 and not is_member[self.spans[ancestor][0]]:
                    ancestor = self.spans[ancestor][4]
                if ancestor < 0:
                    total += t1 - t0
            out[group] = total
        return out
