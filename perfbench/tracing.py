"""Span tracing around miflab's public layer functions.

Each traced function is replaced, at every module attribute where one of
its callers looks it up, by a wrapper that records a span (name, start,
end, parent span, call id) plus per-call counts.  Spans stay in memory
and are written by the worker when the run ends.  Nothing inside the
package is edited: the wrappers are installed on entry to a traced pass
and the original attributes are restored on exit.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter


def _nodes(result):
    return {"nodes": result.nodes}


def _checkpoint_bytes(args, kwargs):
    return os.path.getsize(args[0])


def _json_bytes(args, kwargs):
    return len(args[1]) if len(args) > 1 else len(kwargs["text"])


# span name -> ((module, attribute) lookup sites to patch, counter).  A
# counter maps a returned result to extra counts; a planned budget stop
# (an exception carrying the node count) records its nodes instead.
LAYER_FUNCTIONS = {
    "canonical.is_least_labeling": (
        (("canonical", "is_least_labeling"), ("search", "is_least_labeling")),
        lambda accepted: {"accepted": int(accepted)}),
    "canonical.least_block_list": ((("canonical", "least_block_list"),), None),
    "search.enumerate_mifs": ((("search", "enumerate_mifs"),), _nodes),
    "search.search_isp": ((("search", "search_isp"),), _nodes),
    "search.write_checkpoint": ((("search", "write_checkpoint"),), None),
    "search.read_checkpoint": ((("search", "read_checkpoint"),), None),
    "transversal.transversal_family": (
        (("transversal", "transversal_family"), ("mif", "transversal_family"),
         ("isp", "transversal_family")), _nodes),
    "transversal.tau_with_nodes": (
        (("transversal", "tau_with_nodes"),), lambda result: {"nodes": result[1]}),
    "mif.is_mif": ((("mif", "is_mif"),), None),
    "mif.merge": ((("mif", "merge"),), None),
    "mif.collapse": ((("mif", "collapse"),), lambda trace: {"steps": trace.n_steps}),
    "isp.validate_isp": ((("isp", "validate_isp"), ("mif", "validate_isp")), None),
    "isp.bollobas_sum": ((("isp", "bollobas_sum"), ("mif", "bollobas_sum")), None),
    "isp.extract_isp": ((("isp", "extract_isp"),), None),
    "constructions.bg_family": ((("constructions", "bg_family"),), None),
    "constructions.projective_plane": ((("constructions", "projective_plane"),), None),
    "constructions.complete_family": ((("constructions", "complete_family"),), None),
}

# counts taken from the arguments after the call returns
ARG_COUNTERS = {
    "search.write_checkpoint": ("bytes", _checkpoint_bytes),
    "family.from_json": ("bytes", _json_bytes),
}


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index or None, call id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call_id = None

    def wrap(self, name, fn, counter=None):
        arg_counter = ARG_COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.call_id, None]
            spans.append(span)
            stack.append(index)
            exc = None
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                counts = {}
                if exc is not None:
                    if getattr(exc, "nodes", None) is not None:
                        counts["nodes"] = exc.nodes
                else:
                    if counter is not None:
                        counts.update(counter(result))
                    if arg_counter is not None:
                        key, count = arg_counter
                        counts[key] = count(args, kwargs)
                span[5] = counts

        return traced

    @contextmanager
    def installed(self, modules):
        """Patch every lookup site in LAYER_FUNCTIONS, plus Family.from_json,
        and restore the originals on exit."""
        saved = []
        try:
            for name, (sites, counter) in LAYER_FUNCTIONS.items():
                first_module, first_attr = sites[0]
                traced = self.wrap(name, getattr(modules[first_module], first_attr), counter)
                for module_name, attr in sites:
                    module = modules[module_name]
                    saved.append((module, attr, module.__dict__[attr]))
                    setattr(module, attr, traced)
            family_cls = modules["family"].Family
            original = family_cls.__dict__["from_json"]
            saved.append((family_cls, "from_json", original))
            family_cls.from_json = classmethod(
                self.wrap("family.from_json", original.__func__))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


def aggregate(spans, scales: dict) -> dict:
    """Per-name totals over a list of spans.

    Each duration is multiplied by the scale of its span's call id.  busy_s
    sums the spans of a name that have no ancestor of the same name (for
    the constructions layer, of the same layer); self_s sums each span's
    duration minus the durations of its direct children, which do not
    overlap in this single-threaded program."""
    durations = [(end - start) * scales[call] for _, start, end, _, call, _ in spans]
    child_time = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[3] is not None:
            child_time[span[3]] += duration

    def has_ancestor(index, match):
        parent = spans[index][3]
        while parent is not None:
            if match(spans[parent][0]):
                return True
            parent = spans[parent][3]
        return False

    totals: dict[str, dict] = {}
    layer_busy = 0.0
    for index, ((name, _start, _end, _parent, _call, counts), duration) in enumerate(
            zip(spans, durations)):
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        if not has_ancestor(index, lambda other: other == name):
            entry["busy_s"] += duration
        if name.startswith("constructions.") and not has_ancestor(
                index, lambda other: other.startswith("constructions.")):
            layer_busy += duration
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    totals["constructions"] = {"busy_s": layer_busy}
    return totals
