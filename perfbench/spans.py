"""Per-layer spans around jordannil, recorded from outside its source.

Each module of the package is a layer.  `Tracer.install` replaces the
public functions and public methods of every layer with wrappers that
record a span (name, start, end, parent), and rebinds every name in the
package that referred to an original, so calls between modules are seen
too.  Nothing under src/ is edited.  Spans are timed on
speed.program_time, which stops while the reference kernel runs.  `field`
is left unwrapped, and so are the hot helpers in UNWRAPPED: a span around
each of their millions of calls would cost more than the calls, so their
time shows up as the self time of the layer that calls them.
"""

import functools
import gzip
import json
from array import array
from types import FunctionType

from speed import program_time

LAYERS = ("cli", "files", "classify", "cohomology", "orbits", "extension",
          "homsearch", "isotest", "groebner", "algebra", "linalg", "tables")

UNWRAPPED = {
    "algebra": {"default_labels", "fingerprint_key", "Algebra.product",
                "Algebra.product_basis", "Algebra.all_vectors"},
    "cohomology": {"triangle_size", "triangle_index", "triangle_pairs",
                   "zero_form", "BilinearForm"},
    "groebner": {"mono_mul", "mono_div", "mono_lcm", "mono_divides",
                 "lex_key", "degrevlex_key", "PolyRing", "Polynomial"},
    "linalg": {"zeros", "unit", "identity", "vec_add", "vec_sub",
               "vec_scale", "vec_mat", "mat_mul", "transpose",
               "reduce_vector", "Subspace.is_zero"},
    "orbits": {"SubspacePoint", "AutGroup"},
}


def _find_all(args, kwargs, result):
    find_all = kwargs.get("find_all", args[2] if len(args) > 2 else False)
    return (bool(find_all), len(result))


# Results some metrics need, taken from the call as it returns.
RESULT_OF = {
    "classify.descendants_with_reps": lambda a, k, r: len(r),
    "orbits.automorphism_group": lambda a, k, r: len(r),
    "orbits.allowable_points": lambda a, k, r: len(r),
    "orbits.orbit_representatives_from": lambda a, k, r: len(r),
    "homsearch.find_isomorphisms": _find_all,
    "homsearch.find_witness": lambda a, k, r: r is not None,
    "isotest.decide": lambda a, k, r: r.kind,
    "groebner.buchberger": lambda a, k, r: len(r),
    "tables.catalog_verify": lambda a, k, r: r.counts(),
}

VERDICTS = ("isomorphic", "distinguished", "non_isomorphic_over_closure")


class Tracer:
    """Spans of one traced round, kept in flat arrays until written out."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.clear()

    def clear(self):
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.results = {}
        self._stack = []

    def _wrap(self, qualname, fn):
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        extract = RESULT_OF.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(program_time())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = program_time()
                stack.pop()
            if extract is not None:
                tracer.results[idx] = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self, modules):
        """Wrap the layers of a freshly imported package.

        modules maps each layer name to its module; every module of the
        package must be in it, so that names bound by `from .x import y`
        are rebound as well.
        """
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            skip = UNWRAPPED.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in skip \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif isinstance(obj, type):
                    for mname, meth in list(vars(obj).items()):
                        if isinstance(meth, FunctionType) \
                                and not mname.startswith("_") \
                                and f"{name}.{mname}" not in skip:
                            setattr(obj, mname,
                                    self._wrap(f"{layer}.{name}.{mname}", meth))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj)) if isinstance(obj, FunctionType) else None
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    # -- analysis -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last clear()."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
        by_name, total, self_time = {}, {}, {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            qn = names[self.name[i]]
            by_name.setdefault(qn, []).append(i)
            total[qn] = total.get(qn, 0.0) + dur[i]
            st = dur[i] - child[i]
            self_time[qn] = self_time.get(qn, 0.0) + st
            layer_self[qn.split(".", 1)[0]] += st
        calls = {qn: len(idx) for qn, idx in by_name.items()}

        def spans_of(qn):
            return by_name.get(qn, [])

        def parent_is(i, qn):
            par = self.parent[i]
            return par >= 0 and names[self.name[par]] == qn

        res = self.results
        m = {}
        m["cli.self_s"] = layer_self["cli"]
        m["files.parse_calls"] = calls.get("files.parse_algebra_file", 0)
        m["files.render_calls"] = calls.get("files.render_algebra", 0)
        m["files.self_s"] = layer_self["files"]

        direct_sums = [i for i in spans_of("algebra.Algebra.direct_sum")
                       if parent_is(i, "classify.classify_dim")]
        m["classify.candidates"] = len(direct_sums) + sum(
            res[i] for i in spans_of("classify.descendants_with_reps"))
        dedup = [i for i in spans_of("homsearch.find_witness")
                 if parent_is(i, "classify.classify_dim")]
        m["classify.dedup_calls"] = len(dedup)
        m["classify.dedup_s"] = sum(dur[i] for i in dedup)
        m["classify.oracle_s"] = self_time.get("classify.brute_force_classes", 0.0)

        m["cohomology.h2_space_calls"] = calls.get("cohomology.h2_space", 0)
        m["cohomology.h2_space_s"] = total.get("cohomology.h2_space", 0.0)
        m["cohomology.reduce_calls"] = calls.get("cohomology.H2Space.reduce", 0)
        m["cohomology.reduce_s"] = total.get("cohomology.H2Space.reduce", 0.0)
        m["cohomology.pull_back_calls"] = calls.get("cohomology.pull_back", 0)

        aut = spans_of("orbits.automorphism_group")
        m["orbits.aut_calls"] = len(aut)
        m["orbits.aut_elements"] = sum(res[i] for i in aut)
        m["orbits.aut_s"] = sum(dur[i] for i in aut)
        m["orbits.action_matrices"] = calls.get("orbits.h2_action_matrix", 0)
        m["orbits.action_s"] = total.get("orbits.h2_action_matrix", 0.0)
        m["orbits.allowable_points"] = sum(
            res[i] for i in spans_of("orbits.allowable_points"))
        reps = spans_of("orbits.orbit_representatives_from")
        m["orbits.orbits"] = sum(res[i] for i in reps)
        m["orbits.orbit_reps_s"] = sum(dur[i] for i in reps)

        m["extension.central_extension_calls"] = calls.get(
            "extension.central_extension", 0)
        m["extension.centre_check_calls"] = calls.get(
            "extension.centre_of_extension_decomposition", 0)
        m["extension.self_s"] = layer_self["extension"]

        find_all = [i for i in spans_of("homsearch.find_isomorphisms")
                    if res[i][0]]
        m["homsearch.find_all_calls"] = len(find_all)
        m["homsearch.find_all_results"] = sum(res[i][1] for i in find_all)
        m["homsearch.find_all_s"] = sum(dur[i] for i in find_all)
        wit = spans_of("homsearch.find_witness")
        m["homsearch.witness_calls"] = len(wit)
        m["homsearch.witness_found"] = sum(1 for i in wit if res[i])
        m["homsearch.witness_found_s"] = sum(dur[i] for i in wit if res[i])
        m["homsearch.witness_none_s"] = sum(dur[i] for i in wit if not res[i])

        decide = spans_of("isotest.decide")
        m["isotest.decide_calls"] = len(decide)
        m["isotest.prefilter_s"] = total.get("isotest.prefilter", 0.0)
        m["isotest.iso_system_s"] = total.get("isotest.iso_system", 0.0)
        m["isotest.eliminate_linear_s"] = total.get("isotest.eliminate_linear", 0.0)
        for kind in VERDICTS:
            m[f"isotest.verdicts.{kind}"] = sum(1 for i in decide if res[i] == kind)

        bb = spans_of("groebner.buchberger")
        m["groebner.buchberger_calls"] = len(bb)
        m["groebner.buchberger_s"] = sum(dur[i] for i in bb)
        m["groebner.s_polynomial_calls"] = calls.get("groebner.s_polynomial", 0)
        m["groebner.reduce_poly_calls"] = calls.get("groebner.reduce_poly", 0)
        m["groebner.reduce_poly_s"] = total.get("groebner.reduce_poly", 0.0)
        m["groebner.basis_size"] = sum(res[i] for i in bb)

        for short in ("fingerprint", "is_nilpotent", "check_jordan", "change_basis"):
            qn = f"algebra.Algebra.{short}"
            m[f"algebra.{short}_calls"] = calls.get(qn, 0)
            m[f"algebra.{short}_s"] = total.get(qn, 0.0)
        for short in ("rref", "solve"):
            m[f"linalg.{short}_calls"] = calls.get(f"linalg.{short}", 0)
            m[f"linalg.{short}_s"] = total.get(f"linalg.{short}", 0.0)

        pairs = {}
        for i in spans_of("tables.catalog_verify"):
            for method, count in res[i].items():
                pairs[method] = pairs.get(method, 0) + count
        m["tables.pairs.fingerprint"] = pairs.get("fingerprint", 0)
        m["tables.pairs.groebner"] = pairs.get("groebner", 0)
        m["tables.pairs.skipped"] = pairs.get("skipped-square-class", 0)
        m["tables.self_s"] = layer_self["tables"]

        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["trace.spans"] = n
        return m

    def write(self, path):
        """Write the recorded spans, one JSON object a line, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i]}) + "\n")
