"""Per-layer tracing for the benchmark: wrap public library functions, keep spans.

The library's modules bind each other's functions with ``from ... import``,
so a function is wrapped in its home module and in every caller module that
holds the same object under the same name.  Each call records one span
(name, start, end, parent) in flat in-memory arrays; self time is a span's
duration minus the durations of its direct children, computed once at the
end from the arrays.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (home module, attribute) of every traced function, in report order
TARGETS = (
    ("logic", "eval_exists_decomposed"),
    ("logic", "induced_partial_function"),
    ("logic", "eval_formula"),
    ("catalog", "build"),
    ("catalog", "pp_expand"),
    ("core", "all_subuniverses"),
    ("core", "subalgebra"),
    ("core", "quotient"),
    ("core", "sg_closure"),
    ("congruences", "congruence_lattice"),
    ("congruences", "principal_congruence"),
    ("partitions", "Partition.join"),
    ("analysis", "homs"),
    ("analysis", "is_isomorphic"),
    ("analysis", "is_homomorphism"),
    ("analysis", "hs_classify"),
    ("analysis", "check_amalgamation"),
    ("analysis", "check_epic_subalgebras"),
)

# modules whose own global names may hold a traced function
CALLER_MODULES = ("claims", "catalog", "analysis", "congruences")

# spans whose results feed the extra statistics
OBSERVED = ("analysis.homs", "analysis.is_isomorphic", "congruences.principal_congruence")

# extra statistics beyond calls and self_s, keyed by span name
EXTRAS = (
    "analysis.homs.maps",
    "analysis.is_isomorphic.true_ratio",
    "congruences.principal_congruence.distinct_ratio",
)


def span_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attr in TARGETS]


class Tracer:
    """Span recorder installed over the library's module attributes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # raw counters for the extra statistics
        self.maps = 0
        self.iso_true = 0
        self.principal_new = 0
        self._seen_parent = -2
        self._seen: set = set()

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _observe(self, name: str, idx: int, result) -> None:
        if name == "analysis.homs":
            self.maps += len(result)
        elif name == "analysis.is_isomorphic":
            if result is True or (isinstance(result, tuple) and result[0]):
                self.iso_true += 1
        elif name == "congruences.principal_congruence":
            # "new" means not yet returned under the same parent span
            parent = self.parent[idx]
            if parent != self._seen_parent:
                self._seen_parent, self._seen = parent, set()
            if result not in self._seen:
                self._seen.add(result)
                self.principal_new += 1

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        observe = name in OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe:
                self._observe(name, idx, result)
            return result

        return traced

    def wrap_claims(self, claims_mod) -> None:
        """Span every claim as claims.<CLAIM-ID>, through run_claim."""
        run_claim = claims_mod.run_claim

        @functools.wraps(run_claim)
        def traced(claim_id, *args, **kwargs):
            idx = self._open(self._id(f"claims.{claim_id.partition('?')[0]}"))
            try:
                return run_claim(claim_id, *args, **kwargs)
            finally:
                self._close(idx)

        self._set(claims_mod, "run_claim", traced)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "uaforge") -> None:
        mods = {}

        def mod(name):
            if name not in mods:
                mods[name] = importlib.import_module(f"{package}.{name}")
            return mods[name]

        for home, attr in TARGETS:
            name = f"{home}.{attr}"
            if "." in attr:  # a method: patch the class once, every caller sees it
                cls_name, meth = attr.split(".")
                cls = getattr(mod(home), cls_name)
                self._set(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(mod(home), attr)
            wrapped = self.wrap(name, original)
            for owner in (home, *CALLER_MODULES):
                if mod(owner).__dict__.get(attr) is original:
                    self._set(mod(owner), attr, wrapped)
        self.wrap_claims(mod("claims"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        names, parent, start, end = self._arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - covered, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write the raw spans; name_id indexes the names array."""
        names, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=names,
                            parent=parent, start=start, end=end)
