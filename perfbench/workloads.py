"""The benchmark's workloads: inputs from the seed, one pass, and its output gate.

Each workload is a class with ``setup`` (input construction, timed as part
of set-up) and ``run_pass`` (one timed pass), which returns a list of
``(operation, ok, detail)`` rows: one row per claim, query or layer check.
The library is reached only through attributes of its public modules, looked
up at call time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from itertools import permutations

from uaforge import analysis, catalog, claims, congruences, core, logic


def atom_set_size(alg, x) -> int:
    """Size of x when it is a proper nonempty atom set, named like "{0,2}"; else 0."""
    name = alg.element_name(x)
    return name.count(",") + 1 if name.startswith("{") else 0


def draw_pp_pass(seed: int, index: int, A4) -> list[dict]:
    """The six (k, x, y) queries of pp-query pass number ``index``.

    For each k = 1..3, x is drawn from the atom sets with exactly k atoms,
    the largest elements that phi(k, 4) still sends to 1, so the three pools
    together cover every proper nonempty atom set; one query asks for the
    atom-count value of phi(k, 4) at x, the other for a y drawn from x's
    pool, which is never a value (those are e and 1).  Each pool is one
    orbit of the atom permutations, which fix phi(k, 4), so every member
    costs the solver the same; across orbits the cost of a query ranges
    from 0.001 s to 6 s with the atom counts of x and y, and a pass mixing
    orbits at random would make the pass time a function of the seed.
    """
    rng = random.Random(f"pp-query-n4/{seed}/{index}")
    out = []
    for k in (1, 2, 3):
        pool = [x for x in range(A4.size) if atom_set_size(A4, x) == k]
        x = rng.choice(pool)
        y_true = catalog.expected_phi_value(A4, k, x)
        for y in (y_true, rng.choice(pool)):
            out.append({"k": k, "x": x, "y": y, "expected": y == y_true})
    return out


class RegistryN3:
    """The whole claim registry at n=3, as ``uaforge check --all`` runs it."""

    name = "registry-n3"
    passes_per_process = 1  # every pass starts with an empty catalog memo

    def __init__(self, seed: int, expected: dict):
        self.expected = expected["registry-n3"]
        self.operations = len(self.expected)

    def setup(self) -> None:
        pass  # the registry builds its own inputs; set-up is the import

    def run_pass(self, index: int) -> list[tuple]:
        got = {r.id: r for r in claims.run_all(n=3)}
        rows = []
        for cid, evidence in self.expected.items():
            r = got.pop(cid, None)
            if r is None:
                rows.append((cid, False, "missing"))
            elif r.status != "pass" or r.evidence != evidence:
                rows.append((cid, False, f"{r.status}: {r.evidence}"))
            else:
                rows.append((cid, True, ""))
        rows.extend((cid, False, "unexpected claim") for cid in got)
        return rows


class PPQueryN4:
    """phi(k,4) on A4, one (x, y) pair per call, with no state shared between calls."""

    name = "pp-query-n4"
    passes_per_process = None
    operations = 6

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.drawn: list[dict] = []

    def setup(self) -> None:
        self.A4 = catalog.build("An?n=4")
        self.phi = {k: catalog.build(f"phi?k={k}&n=4")[0] for k in (1, 2, 3)}

    def run_pass(self, index: int) -> list[tuple]:
        queries = draw_pp_pass(self.seed, index, self.A4)
        self.drawn.extend(queries)
        rows = []
        for q in queries:
            got = logic.eval_exists_decomposed(self.A4, self.phi[q["k"]], {0: q["x"], 1: q["y"]})
            rows.append((f"phi(k={q['k']}) x={q['x']} y={q['y']}", got == q["expected"], f"verdict {got}"))
        return rows


class StructureN4:
    """The registry's non-solver n=4 checks, called layer by layer on A4 and B4."""

    name = "structure-n4"
    passes_per_process = None
    operations = 8

    def __init__(self, seed: int, expected: dict):
        self.facts = expected["structure-n4"]

    def setup(self) -> None:
        A4 = catalog.build("An?n=4")
        # B4 from the atom-count tables: catalog.build("Bn?n=4") would spend
        # minutes in the pp solver, which the other workloads measure
        lf = [(f"lf{k}", 1) for k in (1, 2, 3)]
        tables = dict(A4.tables)
        for k in (1, 2, 3):
            tables[f"lf{k}"] = tuple(catalog.expected_phi_value(A4, k, a) for a in range(A4.size))
        self.A4 = A4
        self.B4 = core.make_algebra("B4", A4.signature.extended(tuple(lf)), A4.size, tables,
                                    A4.element_names)
        self.An = [catalog.build(f"An?n={j}") for j in range(5)]

    def run_pass(self, index: int) -> list[tuple]:
        rows = []
        state: dict = {}
        for check in (self._subalgebras, self._congruences, self._automorphisms,
                      self._hs_a4, self._hs_b4, self._rigid, self._amalgamation, self._epic):
            name = check.__name__.lstrip("_")
            try:
                ok, detail = check(state)
            except Exception as exc:  # a raising layer is a failed check, not a crash
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            rows.append((name, ok, detail))
        return rows

    def _subalgebras(self, state):
        subs = core.all_subuniverses(self.B4)
        state["subs"] = [core.subalgebra(self.B4, s)[0] for s in subs]
        reps = []
        for sub in state["subs"]:
            if not any(analysis.is_isomorphic(sub, r) for r in reps):
                reps.append(sub)
        state["reps"] = reps
        return len(subs) == self.facts["subalgebras"], f"{len(subs)} subalgebras"

    def _congruences(self, state):
        for sub in state["subs"]:
            full = set(congruences.congruence_lattice(sub).congruences)
            red = set(congruences.congruence_lattice(catalog.heyting_reduct(sub)).congruences)
            if full != red:
                return False, f"congruences differ on {sub.name}"
        return True, ""

    def _automorphisms(self, state):
        aut = analysis.automorphisms(self.B4)
        state["aut"] = aut
        atoms = catalog.atoms_of(self.A4)
        induced = set()
        for perm in permutations(atoms):
            m, ok = analysis.atom_permutation_automorphism(self.B4, dict(zip(atoms, perm)))
            if not ok:
                return False, f"atom permutation {perm} induces no automorphism"
            induced.add(m)
        ok = len(aut) == self.facts["automorphisms"] and set(aut.maps) == induced
        return ok, f"{len(aut)} automorphisms"

    def _hs_a4(self, state):
        hs = analysis.hs_classify(self.A4)
        reps = [hs.representatives[c] for c in hs.fsi_classes()]
        sizes = sorted(r.size for r in reps)
        matched = all(sum(1 for r in reps if analysis.is_isomorphic(r, t)) == 1 for t in self.An)
        return sizes == self.facts["hs_a4_fsi_sizes"] and matched, f"FSI sizes {sizes}"

    def _hs_b4(self, state):
        hs = analysis.hs_classify(self.B4)
        reps = [hs.representatives[c] for c in hs.fsi_classes()]
        sizes = sorted(r.size for r in reps)
        matched = len(reps) == len(state["reps"]) and all(
            sum(1 for r in reps if analysis.is_isomorphic(r, t)) == 1 for t in state["reps"]
        )
        return sizes == self.facts["hs_b4_fsi_sizes"] and matched, f"FSI sizes {sizes}"

    def _rigid(self, state):
        aut = state["aut"]
        pairs = 0
        for sub in state["subs"]:
            embs = analysis.embeddings(sub, self.B4)
            for g in embs:
                for h in embs:
                    if not any(all(g[x] == i[h[x]] for x in range(sub.size)) for i in aut):
                        return False, f"embeddings of {sub.name} not related by an automorphism"
                    pairs += 1
        return pairs == self.facts["rigid_embedding_pairs"], f"{pairs} rigid pairs"

    def _amalgamation(self, state):
        members = state["reps"] + [catalog.trivial_algebra(self.B4.signature)]
        ok, reports = analysis.check_amalgamation(members)
        return ok and len(reports) == self.facts["amalgamated_spans"], f"{len(reports)} spans"

    def _epic(self, state):
        ok, witnesses = analysis.check_epic_subalgebras(self.B4)
        return ok and len(witnesses) == self.facts["epic_inclusions"], f"{len(witnesses)} inclusions"


WORKLOADS = {w.name: w for w in (RegistryN3, PPQueryN4, StructureN4)}
