"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each traced function of the ``mutperm``
package with a timing wrapper: module-level functions in every
``mutperm`` module that binds them (``expand`` is imported into five
modules), methods on their class.  ``Tracer.restore`` puts the originals
back.  Nothing in the package itself changes.

Spans are aggregated by (name, parent) into calls, total time and self
time, where self time is a span's duration minus the durations of its
direct child spans.  Spans named in ``coarse`` (phases, whole
computations, CLI requests) are also kept one by one for the trace file.
"""

from __future__ import annotations

import functools
import sys
import time


def _mul_pairs(result, args, kwargs):
    a, b = args
    if isinstance(b, type(a)):
        return {"mono_pairs": len(a.terms) * len(b.terms)}
    return None


def _true_count(result, args, kwargs):
    return {"true": 1 if result else 0}


def _rref_nnz(result, args, kwargs):
    return {"nnz_in": sum(len(r) for r in args[0].rows)}


# Traced functions: (module, qualified name, extra-counter function).
# The extra function sees (result, args, kwargs) and returns counters to
# add to the span's aggregate, or None.
TARGETS = [
    ("perm", "bracket", None),
    ("perm", "Elt.__mul__", _mul_pairs),
    ("terms", "parse", None),
    ("terms", "render", None),
    ("terms", "substitute", None),
    ("terms", "multilinearize", None),
    ("mutation", "expand", lambda r, a, k: {"terms_out": len(r.terms)}),
    ("mutation", "is_mutation_element", _true_count),
    ("mutation", "verify_basis_B", None),
    ("mutation", "bracket_monomials", None),
    ("linalg", "SpanReducer.insert", _true_count),
    ("linalg", "SpanReducer.contains", _true_count),
    ("linalg", "SpanReducer.residue", None),
    ("linalg", "rref", _rref_nnz),
    ("linalg", "kernel_basis", None),
    ("linalg", "solve", None),
    ("identities", "expansion_matrix", None),
    ("identities", "consequence_span", lambda r, a, k: {"dim_out": len(r)}),
    ("identities", "new_identities", None),
    ("findim", "FiniteAlgebra.mul", None),
    ("findim", "evaluate", None),
    ("findim", "satisfies", None),
    ("findim", "mutation_algebra", None),
    ("findim", "jacobi_test", None),
    ("speciality", "cohn_check", None),
    ("cli", "main", None),
]


def span_name(module, qualname):
    """Metric prefix of a traced function: ``Elt.__mul__`` is ``Elt.mul``."""
    return f"{module}.{qualname.replace('__mul__', 'mul')}"


class Tracer:
    """Span stack plus per-(name, parent) aggregates.

    ``clock`` returns seconds; tests pass a fake one.
    """

    def __init__(self, coarse=(), clock=time.perf_counter):
        self.clock = clock
        self.coarse = set(coarse)
        self.stack = []          # [name, span id, start, child seconds]
        self.agg = {}            # (name, parent) -> aggregate dict
        self.spans = []          # coarse spans, one dict each
        self._next_id = 0
        self._patched = []       # (owner, attribute, original)

    # -- spans -----------------------------------------------------------
    def enter(self, name):
        self._next_id += 1
        self.stack.append([name, self._next_id, self.clock(), 0.0])

    def exit(self, counters=None):
        name, sid, start, child = self.stack.pop()
        end = self.clock()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        key = (name, parent[0] if parent else None)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += dur - child
        if counters:
            for k, v in counters.items():
                rec[k] = rec.get(k, 0) + v
        if name in self.coarse:
            self.spans.append({"id": sid,
                               "parent": parent[1] if parent else None,
                               "name": name, "start": start, "end": end})

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.exit(extra(result, args, kwargs)
                          if extra is not None and result is not None
                          else None)
        return traced

    # -- installing wrappers ---------------------------------------------
    def install(self):
        """Wrap every target in every ``mutperm`` module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mutperm" or n.startswith("mutperm.")]
        for mod_name, qualname, extra in TARGETS:
            home = sys.modules[f"mutperm.{mod_name}"]
            name = span_name(mod_name, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self.wrap(name, original, extra))
                continue
            original = getattr(home, qualname)
            wrapper = self.wrap(name, original, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------
    def by_name(self):
        """Aggregates summed over parents: name -> dict."""
        out = {}
        for (name, _), rec in self.agg.items():
            tot = out.setdefault(name, {})
            for k, v in rec.items():
                tot[k] = tot.get(k, 0) + v
        return out

    def dump(self):
        return {"aggregates": [dict(name=n, parent=p, **rec)
                               for (n, p), rec in sorted(
                                   self.agg.items(),
                                   key=lambda kv: (kv[0][0], str(kv[0][1])))],
                "spans": self.spans}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals):
    """Per-layer metrics of a traced pass, as {name: (value, unit)};
    ``totals`` is ``Tracer.by_name()``."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for mod_name, qualname, _ in TARGETS:
        name = span_name(mod_name, qualname)
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    out["perm.mono_mul.count"] = (get("perm.Elt.mul", "mono_pairs"), "count")
    out["mutation.expand.terms_out"] = (get("mutation.expand", "terms_out"),
                                        "count")
    out["mutation.is_mutation_element.true_ratio"] = (
        _ratio(get("mutation.is_mutation_element", "true"),
               get("mutation.is_mutation_element", "calls")), "ratio")
    out["linalg.SpanReducer.insert.accepted"] = (
        get("linalg.SpanReducer.insert", "true"), "count")
    out["linalg.SpanReducer.insert.accept_ratio"] = (
        _ratio(get("linalg.SpanReducer.insert", "true"),
               get("linalg.SpanReducer.insert", "calls")), "ratio")
    out["linalg.SpanReducer.contains.hit_ratio"] = (
        _ratio(get("linalg.SpanReducer.contains", "true"),
               get("linalg.SpanReducer.contains", "calls")), "ratio")
    out["linalg.rref.nnz_in"] = (get("linalg.rref", "nnz_in"), "count")
    out["identities.consequence_span.dim_out"] = (
        get("identities.consequence_span", "dim_out"), "count")
    return out
