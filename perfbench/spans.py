"""Spans around the calls into polydiag's public functions, from outside src/.

``Tracer.install(lib)`` replaces each traced function or method with a
wrapper that records a span (name, start, end, parent span, job id) while
the tracer is active.  Module-level functions are replaced in every polydiag
module that bound them by name, so calls through ``from .x import f`` are
seen too.  Spans live in flat arrays and are written out once, at the end.

A span's self time is its duration minus the durations of its child spans;
spans of one thread nest, so the children never overlap.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("arith.mul", "arith", "Polynomial.__mul__"),
    ("arith.mul", "arith", "Polynomial.__rmul__"),
    ("arith.add", "arith", "Polynomial.__add__"),
    ("arith.add", "arith", "Polynomial.__radd__"),
    ("arith.exact_div", "arith", "Polynomial.exact_div"),
    ("arith.evaluate", "arith", "Polynomial.evaluate"),
    ("arith.str", "arith", "Polynomial.__str__"),
    ("arith.parse_polynomial", "arith", "parse_polynomial"),
    ("polymat.matmul", "polymat", "PolyMatrix.__matmul__"),
    ("polymat.eq", "polymat", "PolyMatrix.__eq__"),
    ("polymat.determinant", "polymat", "PolyMatrix.determinant"),
    ("polymat.generic_rank", "polymat", "PolyMatrix.generic_rank"),
    ("polymat.parse_matrix", "polymat", "parse_matrix"),
    ("polymat.format_matrix", "polymat", "format_matrix"),
    ("diagonal.standard_form_diagonalize", "diagonal", "standard_form_diagonalize"),
    ("diagonal.single_path_diagonalize", "diagonal", "single_path_diagonalize"),
    ("diagonal.diagonalization_bundle", "diagonal", "diagonalization_bundle"),
    ("diagonal.block_step", "diagonal", "block_step"),
    ("certificates.diag_certificate_failures", "certificates", "diag_certificate_failures"),
    ("certificates.bundle_certificate_failures", "certificates", "bundle_certificate_failures"),
    ("certificates.equiv_witness_failures", "certificates", "equiv_witness_failures"),
    ("certificates.sos_matrix_failures", "certificates", "sos_matrix_failures"),
    ("certificates.membership_failures", "certificates", "membership_failures"),
    ("certificates.format", "certificates", "format_diag_certificate"),
    ("certificates.format", "certificates", "format_bundle_certificate"),
    ("certificates.format", "certificates", "format_equiv_certificate"),
    ("certificates.format", "certificates", "format_sos_certificate"),
    ("certificates.format", "certificates", "format_membership_certificate"),
    ("certificates.parse_certificate", "certificates", "parse_certificate"),
    ("positivity.psd_rational", "positivity", "psd_rational"),
    ("positivity.eval_matrix", "positivity", "eval_matrix"),
    ("positivity.psd_on_grid", "positivity", "psd_on_grid"),
    ("positivity.check_bundle_equivalence", "positivity", "check_bundle_equivalence"),
    ("cli.main", "cli", "main"),
)

# Spans that check certificate identities.  block_step counts: it checks
# its own three identities before returning.
VERIFIERS = (
    "certificates.diag_certificate_failures",
    "certificates.equiv_witness_failures",
    "certificates.sos_matrix_failures",
    "certificates.membership_failures",
    "diagonal.block_step",
)


def _after_mul(counts, args, result):
    other = args[1]
    right = len(other.terms) if hasattr(other, "terms") else (1 if other else 0)
    counts["arith.mul.term_pairs"] += len(args[0].terms) * right
    if len(result.terms) > counts["arith.mul.max_out_terms"]:
        counts["arith.mul.max_out_terms"] = len(result.terms)


def _after_producer(counts, args, result):
    certs = [c for c, _trace in result.branches] if hasattr(result, "branches") else [result]
    counts["diagonal.branches"] += len(certs)
    counts["diagonal.vacuous_branches"] += sum(1 for c in certs if c.w.is_zero())


def _after_format(counts, args, result):
    counts["certificates.bytes_out"] += len(result.encode())
    payload = args[0]
    counts["certificates.handled"] += len(payload.branches) if hasattr(payload, "branches") else 1


def _after_parse_certificate(counts, args, result):
    counts["certificates.bytes_in"] += len(args[0].encode())
    kind, payload = result
    counts["certificates.handled"] += len(payload.branches) if kind == "bundle" else 1


def _after_psd(counts, args, result):
    counts["positivity.psd_points"] += bool(result)


def _after_grid(counts, args, result):
    counts["positivity.grid_points"] += result.total_points


def _after_main(counts, args, result):
    counts[f"cli.main.exit_{result}"] += 1


AFTER = {
    "arith.mul": _after_mul,
    "diagonal.standard_form_diagonalize": _after_producer,
    "diagonal.single_path_diagonalize": _after_producer,
    "diagonal.diagonalization_bundle": _after_producer,
    "certificates.format": _after_format,
    "certificates.parse_certificate": _after_parse_certificate,
    "positivity.psd_rational": _after_psd,
    "positivity.psd_on_grid": _after_grid,
    "positivity.check_bundle_equivalence": _after_grid,
    "cli.main": _after_main,
}


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts = Counter()
        self.job_id = -1
        self.active = False
        self._stack = []
        self._undo = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """``fn`` wrapped to record a span named ``name`` when active."""
        nid = self._name_id(name)
        after = AFTER.get(name)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if result is NotImplemented:
                # operand type refused; Python retries the reflected
                # method, so this was no call into the layer
                tracer._drop_last()
            elif after is not None:
                after(tracer.counts, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _drop_last(self):
        for arr in (self.name, self.start, self.end, self.parent, self.job):
            arr.pop()

    def install(self, lib):
        """Wrap every target in the polydiag modules held by ``lib``."""
        modules = [m for m in vars(lib).values() if hasattr(m, "__name__")]
        for name, module_name, attr in TARGETS:
            module = getattr(lib, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- reading the spans back ------------------------------------------

    def summarize(self):
        """Per span name: calls, total_s (outermost spans only), self_s."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        nested = self.nested_within(set(range(len(self.names))), same_name=True)
        for i in range(n):
            st = stats[self.names[self.name[i]]]
            st["calls"] += 1
            st["self_s"] += dur[i] - child[i]
            if i not in nested:
                st["total_s"] += dur[i]
        return dict(stats)

    def nested_within(self, name_ids, same_name=False):
        """Indices of spans named in ``name_ids`` that have an ancestor also
        named in it (with ``same_name``, an ancestor of the same name)."""
        out = set()
        open_by_name = {}
        chain = []  # open ancestors of the current span, as indices
        for i in range(len(self.start)):
            while chain and chain[-1] != self.parent[i]:
                closed = chain.pop()
                open_by_name[self.name[closed]] -= 1
            nid = self.name[i]
            if nid in name_ids:
                if same_name:
                    if open_by_name.get(nid, 0):
                        out.add(i)
                elif any(open_by_name.get(k, 0) for k in name_ids):
                    out.add(i)
            chain.append(i)
            open_by_name[nid] = open_by_name.get(nid, 0) + 1
        return out

    def inclusive_s(self, names):
        """Time inside any span named in ``names``, each instant counted once."""
        ids = {self._ids[n] for n in names if n in self._ids}
        inner = self.nested_within(ids)
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name[i] in ids and i not in inner
        )

    def write(self, path):
        """One JSON header line, then the span arrays as raw machine words."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["job", "i"]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.job):
                arr.tofile(handle)


def read_spans(path):
    """Load a span file written by ``Tracer.write`` into a new Tracer."""
    tracer = Tracer()
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        for name in header["names"]:
            tracer._name_id(name)
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(handle, header["count"])
            setattr(tracer, field, arr)
    return tracer
