"""Spans and counters around jordanalg's public calls, installed from outside.

The package is not edited.  `Tracer.install` replaces each function and
method named in `SPANNED` wherever a jordanalg module binds it (the
defining module, every module that imported it by name, and the package
namespace), so cross-module calls such as derivations -> invert_element
are seen too.  `uninstall` puts the originals back.

A span is (name, start_ns, end_ns, parent span index, job id).  Spans
live in flat arrays while the run is going and are written as JSONL only
at the end.  Self time is derived from the spans: a span's duration minus
the durations of its direct children, which are nested and sequential
because every workload is single-threaded.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute): a function of the module or "Class.method".
SPANNED = (
    ("cli", "main"),
    ("formats", "read_algebra"),
    ("formats", "write_algebra"),
    ("constructions", "albert_type"),
    ("constructions", "involution_check"),
    ("constructions", "gamma_involution"),
    ("constructions", "hermitian_subalgebra"),
    ("constructions", "diagonal_spin_factor"),
    ("algebra", "check_identity"),
    ("algebra", "invert_element"),
    ("algebra", "ideal_closure"),
    ("algebra", "quotient_algebra"),
    ("algebra", "split_null_extension"),
    ("linalg", "solve_raw"),
    ("linalg", "rref_raw"),
    ("linalg", "nullspace_raw"),
    ("linalg", "nullspace_int_crt"),
    ("linalg", "Matrix.apply"),
    ("jordan", "jordan_inverse"),
    ("jordan", "albert_norm"),
    ("jordan", "peirce_single"),
    ("derivations", "derivation_space"),
    ("derivations", "is_derivation"),
    ("derivations", "DerivationSpace.combination"),
    ("derivations", "has_invertible_values"),
    ("derivations", "div_search"),
    ("derivations", "sample_derivation"),
    ("derivations", "albert_div_witness"),
    ("derivations", "div_reduction"),
    ("derivations", "largest_ideal_in_kernel"),
    ("derivations", "enumerate_ideals"),
    ("derivations", "spin_div_criterion"),
)

# Counted without a span: each runs millions of times per run.
COUNTED = (("fields", "Field.coerce"),)

RUNGS = ("exhaustive", "spin_norm", "albert_recipe", "cap_exceeded")

SETUP_JOB = -1
PACKAGE = "jordanalg"


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Collects spans for one traced phase of a run."""

    def __init__(self):
        self.names: list[str] = [f"{m}.{a}" for m, a in SPANNED]
        self.name_id = array("i")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("q")
        self.end = array("q")
        # outermost[i] is 1 unless span i runs inside a span of its own name
        self.outermost = array("b")
        self.counts: Counter = Counter()
        self.current_job = SETUP_JOB
        self._stack: list[int] = []
        self._active = [0] * len(self.names)
        self._coerce_calls = [0]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _rebind(self, original, replacement):
        """Point every module-level name bound to `original` at `replacement`."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name_id, (module, attr) in enumerate(SPANNED):
            mod = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name_id, original))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._wrap(name_id, original))
        for module, attr in COUNTED:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._count(original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        stack = self._stack
        active = self._active
        clock = time.perf_counter_ns
        name_ids, parents, jobs = self.name_id, self.parent, self.job
        starts, ends, outer = self.start, self.end, self.outermost
        counts = self.counts
        tracer = self
        post = None
        if name == "derivations.has_invertible_values":
            def post(result):
                counts[f"{name}.method.{result.method}"] += 1
        elif name == "derivations.div_search":
            def post(result):
                counts[f"{name}.hits"] += len(result)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.current_job)
            outer.append(0 if active[name_id] else 1)
            ends.append(0)
            stack.append(idx)
            active[name_id] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[name_id] -= 1
                stack.pop()
            if post is not None:
                post(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count(self, fn):
        cell = self._coerce_calls

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, inclusive s and self_s per span name, the per-module self
        time, the Field.coerce count, the rung histogram and the
        div_search candidate and hit counts."""
        n_names = len(self.names)
        count = len(self.start)
        calls = [0] * n_names
        incl = [0] * n_names
        self_ns = [0] * n_names
        child_ns = [0] * count
        dur = [e - s for s, e in zip(self.start, self.end)]
        candidates = 0
        search_id = self.names.index("derivations.div_search")
        hiv_id = self.names.index("derivations.has_invertible_values")
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += dur[i]
                if self.name_id[i] == hiv_id and self.name_id[p] == search_id:
                    candidates += 1
        for i in range(count):
            k = self.name_id[i]
            calls[k] += 1
            if self.outermost[i]:
                incl[k] += dur[i]
            self_ns[k] += dur[i] - child_ns[i]
        out: dict[str, float] = {}
        module_self: dict[str, int] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.s"] = incl[k] / 1e9
            out[f"{name}.self_s"] = self_ns[k] / 1e9
            module = name.split(".")[0]
            module_self[module] = module_self.get(module, 0) + self_ns[k]
        for module, ns in module_self.items():
            out[f"{module}.self_s"] = ns / 1e9
        out["fields.Field.coerce.calls"] = self._coerce_calls[0]
        for rung in RUNGS:
            key = f"derivations.has_invertible_values.method.{rung}"
            out[key] = self.counts.get(key, 0)
        hits = self.counts.get("derivations.div_search.hits", 0)
        out["derivations.div_search.candidates"] = candidates
        out["derivations.div_search.hits"] = hits
        out["derivations.div_search.hit_ratio"] = hits / candidates if candidates else 0.0
        return out

    def write_jsonl(self, path: str):
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                parent = self.parent[i]
                handle.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name_id[i]],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "parent": parent if parent >= 0 else None,
                    "job": "setup" if self.job[i] == SETUP_JOB else self.job[i],
                }, separators=(",", ":")))
                handle.write("\n")
