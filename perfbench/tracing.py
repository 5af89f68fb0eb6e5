"""Spans around calls into sigmagraph's public layers, installed from outside.

The tracer wraps each function in ``TRACED`` and records one span per call:
the function's name id, the index of the enclosing span, and start and end
times from ``time.perf_counter``.  Spans stay in memory as flat arrays and are
aggregated per pass into ``calls``, ``total_s`` and ``self_s``:

* ``total_s`` sums the durations of outermost spans of a name, so a
  recursive call is not counted twice;
* ``self_s`` is a span's duration minus the time its child spans cover.

Free functions are rebound in every ``sigmagraph.*`` namespace that imported
them, and in module-level dicts that hold them (``cli._BUILDERS``), because
``from .group import all_subgroups`` binds the name at import time.  Methods
and constructors are patched on their class.

Blind spot: work that a traced function reaches through an untraced private
helper is charged to the caller's self time.  The normal-subgroup lattice
reached through ``group._normal_subgroup_sets`` from ``is_pi_closed`` and
``is_class_nilpotent`` is the largest case.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

TRACED = {
    "bsgs": ("Bsgs",),
    "group": ("PermGroup", "PermGroup.elements", "PermGroup.universe",
              "all_subgroups", "two_generated_subgroups", "maximal_subgroups",
              "normal_subgroups", "chief_series", "quotient", "centralizer",
              "normalizer", "centralizer_of_factor", "hall_subgroups", "sylow",
              "core_series_subgroup"),
    "predicates": ("is_sigma_soluble", "is_sigma_nilpotent",
                   "is_sigma_dispersive", "is_nilpotent", "is_class_nilpotent",
                   "is_pi_closed", "f_class_subgroup", "is_schmidt",
                   "schmidt_decomposition", "is_critical", "sigma_length"),
    "graphs": ("build_hawkes", "build_hall", "build_vm"),
    "verify": ("verify_prop_1_2", "verify_thm_1_4", "verify_thm_1_7",
               "verify_prop_1_9", "verify_prop_1_11", "verify_thm_1_12"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# ratio name -> which direction is better
RATIOS = {
    "group.universe.miss_ratio": "lower",
    "group.all_subgroups.capped_ratio": "lower",
    "predicates.is_critical.true_ratio": "higher",
    "graphs.memo_hit_ratio": "higher",
}

_GRAPH_KINDS = {"graphs.build_hawkes": "hawkes", "graphs.build_hall": "hall",
                "graphs.build_vm": "vm"}


def per_layer_metric_names() -> list[str]:
    names = [f"{span}.{field}" for span in SPAN_NAMES
             for field in ("calls", "total_s", "self_s")]
    return names + list(RATIOS)


class Tracer:
    """In-memory span store plus the counters behind the four ratios."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = SPAN_NAMES
        self.ids = array("H")
        self.parents = array("l")
        self.outer = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.depth = [0] * len(self.names)
        self.counts = dict.fromkeys(
            ("universe_miss", "capped", "critical_true", "graph_hit"), 0)
        # groups seen in the current block, kept alive so ids stay unique
        self._universe_groups: dict[int, object] = {}
        self._graph_keys: dict[tuple, object] = {}
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def span(self, fn, nid: int):
        ids, parents, outer = self.ids, self.parents, self.outer
        starts, ends, stack, depth = self.starts, self.ends, self.stack, self.depth
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[nid] -= 1
        return traced

    def new_block(self) -> None:
        """Start a group block: groups of earlier blocks are never reused."""
        self._universe_groups.clear()
        self._graph_keys.clear()

    def _hooked(self, name: str, fn):
        counts = self.counts
        if name == "group.PermGroup.universe":
            seen = self._universe_groups

            def hook(group, *args, **kwargs):
                if id(group) not in seen:
                    seen[id(group)] = group
                    counts["universe_miss"] += 1
                return fn(group, *args, **kwargs)
        elif name == "group.all_subgroups":
            from sigmagraph.errors import ResourceLimitError

            def hook(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except ResourceLimitError:
                    counts["capped"] += 1
                    raise
        elif name == "predicates.is_critical":
            def hook(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["critical_true"] += result is True
                return result
        elif name in _GRAPH_KINDS:
            kind, keys = _GRAPH_KINDS[name], self._graph_keys

            def hook(group, sigma, *args, **kwargs):
                key = (id(group), kind, sigma)
                if key in keys:
                    counts["graph_hit"] += 1
                else:
                    keys[key] = group
                return fn(group, sigma, *args, **kwargs)
        else:
            return fn
        return functools.wraps(fn)(hook)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in the imported sigmagraph modules."""
        for mod_name in TRACED:
            importlib.import_module(f"sigmagraph.{mod_name}")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "sigmagraph" or name.startswith("sigmagraph.")]
        for nid, name in enumerate(self.names):
            mod_name, _, attr = name.partition(".")
            module = sys.modules[f"sigmagraph.{mod_name}"]
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name)
            if method or isinstance(owner, type):
                # a method, or a constructor patched as the class's __init__
                cls, meth = (owner, method) if method else (owner, "__init__")
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.span(self._hooked(name, original), nid))
                continue
            wrapped = self.span(self._hooked(name, owner), nid)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is owner:
                        self._restore.append((ns, key, owner))
                        setattr(ns, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is owner:
                                self._restore.append((value, k, owner))
                                value[k] = wrapped

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Span index and counter values at a pass boundary."""
        return len(self.ids), dict(self.counts)

    def aggregate(self, begin: tuple[int, dict], end: tuple[int, dict]) -> dict:
        """calls, total_s and self_s per span name, plus the ratios, for the
        spans recorded between two marks."""
        lo, hi = begin[0], end[0]
        n = len(self.names)
        calls, total, own = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * (hi - lo)
        ids, parents, outer, starts, ends = (self.ids, self.parents, self.outer,
                                             self.starts, self.ends)
        # children are recorded after their parent, so a reverse scan sees
        # every child of a span before the span itself
        for i in range(hi - 1, lo - 1, -1):
            nid = ids[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            own[nid] += dur - child[i - lo]
            if outer[i]:
                total[nid] += dur
            p = parents[i]
            if p >= lo:
                child[p - lo] += dur
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.total_s"] = total[nid]
            out[f"{name}.self_s"] = own[nid]
        delta = {k: end[1][k] - begin[1][k] for k in self.counts}

        def ratio(num, span):
            den = calls[self.names.index(span)]
            return num / den if den else 0.0

        graph_calls = sum(calls[self.names.index(s)] for s in _GRAPH_KINDS)
        out["group.universe.miss_ratio"] = ratio(delta["universe_miss"],
                                                 "group.PermGroup.universe")
        out["group.all_subgroups.capped_ratio"] = ratio(delta["capped"],
                                                        "group.all_subgroups")
        out["predicates.is_critical.true_ratio"] = ratio(delta["critical_true"],
                                                         "predicates.is_critical")
        out["graphs.memo_hit_ratio"] = (delta["graph_hit"] / graph_calls
                                        if graph_calls else 0.0)
        out["_universe_misses"] = delta["universe_miss"]
        return out

    def check_nesting(self, lo: int = 0, hi: int | None = None) -> int:
        """Number of spans in [lo, hi) that do not lie inside their parent."""
        hi = len(self.ids) if hi is None else hi
        bad = 0
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= 0 and not (self.starts[p] <= self.starts[i]
                               and self.ends[i] <= self.ends[p] and p < i):
                bad += 1
        return bad

    def dump(self, path) -> None:
        """Write the spans as one JSON header line, then one line per span:
        name id, parent index, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": list(self.names),
                                 "fields": ["name", "parent", "start", "end"]}) + "\n")
            for i in range(len(self.ids)):
                fh.write(f"{self.ids[i]} {self.parents[i]} "
                         f"{self.starts[i]:.9f} {self.ends[i]:.9f}\n")
