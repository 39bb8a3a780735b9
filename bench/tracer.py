"""Spans and counters around the calls into each layer of invseq.

The tracer wraps public functions of the package from outside: for each
target it replaces every binding of the function object in the invseq
modules, so names that ``invseq.cli`` imported with ``from .x import y``
and module globals such as ``invseq.core.contains`` (which ``avoids``
reaches) are both covered.  A target that no longer exists is reported
as unmeasured instead of failing the run.

A span is ``[name, start, end, parent, request]``; the first dotted part
of the name is its layer.  Spans stay in memory until the run ends.
Counters come from what the wrapped calls return, never from program
internals; DP cells are counted from the size of each system's state
space at the depths a call computed.  An exception escaping a wrapped
call counts under ``<span name>.errors``.
"""

import inspect
import sys
from collections import Counter
from time import perf_counter


def _dense_cells(system_id, depth):
    """DP cells of one system at one depth: three k-slices of length
    depth + 1 for 201-210, the triangle k + ell <= depth otherwise."""
    if system_id == "201-210":
        return 3 * (depth + 1)
    return (depth + 1) * (depth + 2) // 2


def _max_bits(values):
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.counts = Counter()
        self.maxima = Counter()
        self.unmeasured = []

    # -- spans --------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    def begin_request(self, index):
        self.request = index
        self.open("cli.main")

    def end_request(self):
        self.close()

    # -- wrapping -------------------------------------------------------------

    def _wrap_call(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.close()
                tracer.counts[span + ".errors"] += 1
                raise
            tracer.close()
            if hook:
                hook(tracer, args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name, hook):
        """One span per item: the work of a generator runs in next()."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close()
                if hook:
                    hook(tracer, args, item)
                yield item

        return wrapper

    def install(self, modules):
        """Wrap every target in TARGETS at each of its bindings in modules."""
        for module_name, attr, name, hook in TARGETS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.unmeasured.append("%s.%s" % (module_name, attr))
                continue
            wrap = (self._wrap_generator if inspect.isgeneratorfunction(fn)
                    else self._wrap_call)
            wrapper = wrap(fn, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    def report(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "maxima": dict(self.maxima), "unmeasured": self.unmeasured}


# -- counters from returned values --------------------------------------------

def _on_count_sequence(tracer, args, counts):
    c = tracer.counts
    c["oracle.calls"] += 1
    c["oracle.nodes"] += sum(counts)
    c["oracle.accepted"] += sum(counts[1:])
    c["oracle.candidates"] += sum(m * (d + 1) for d, m in enumerate(counts[:-1]))
    tracer.maxima["oracle.max_depth"] = max(tracer.maxima["oracle.max_depth"],
                                            len(counts) - 1)


def _on_list_avoiders(tracer, args, words):
    tracer.counts["oracle.calls"] += 1
    tracer.counts["oracle.words_listed"] += len(words)
    if words:
        tracer.maxima["oracle.max_depth"] = max(tracer.maxima["oracle.max_depth"],
                                                len(words[0]))


def _on_levels(tracer, system_id, depth, values):
    tracer.counts["succession.levels"] += depth
    tracer.counts["succession.state_updates"] += sum(
        _dense_cells(system_id, d) for d in range(1, depth + 1))
    tracer.maxima["succession.max_bits"] = max(
        tracer.maxima["succession.max_bits"], _max_bits(values))


def _on_rule_counting_sequence(tracer, args, counts):
    _on_levels(tracer, args[0], len(counts) - 1, counts)


def _on_state_profile(tracer, args, level):
    _on_levels(tracer, args[0], args[1], level.values())


def _on_profile_slice(tracer, args, item):
    if len(item[0]) == 1:
        return  # depth 0 is the axiom, not a computed level
    tracer.counts["succession.levels"] += 1
    tracer.counts["succession.state_updates"] += sum(len(s) for s in item)
    tracer.maxima["succession.max_bits"] = max(
        tracer.maxima["succession.max_bits"], max(_max_bits(s) for s in item))


def _on_coefficients(tracer, args, result):
    coeffs = getattr(result, "coefficients", result)
    tracer.counts["series.coefficients"] += len(coeffs)


# (module, attribute, span name or args -> span name, counter hook)
TARGETS = (
    ("invseq.core", "avoids", "core.avoids", None),
    ("invseq.core", "contains", "core.contains", None),
    ("invseq.core", "structure_check_201_210", "core.structure_check_201_210", None),
    ("invseq.oracle", "count_sequence", "oracle.count_sequence", _on_count_sequence),
    ("invseq.oracle", "list_avoiders", "oracle.list_avoiders", _on_list_avoiders),
    ("invseq.oracle", "_count_fast", "oracle.count_fast", None),
    ("invseq.oracle", "_count_generic", "oracle.count_generic", None),
    ("invseq.succession", "rule_counting_sequence",
     lambda args: "succession." + str(args[0]), _on_rule_counting_sequence),
    ("invseq.succession", "state_profile", "succession.state_profile",
     _on_state_profile),
    ("invseq.succession", "profile_slices_201_210", "succession.profile_slices",
     _on_profile_slice),
    ("invseq.series", "f_coefficients", "series.f_coefficients", _on_coefficients),
    ("invseq.series", "relation_residual", "series.relation_residual", None),
    ("invseq.series", "_check_system_violation", "series.check_system", None),
    ("invseq.series", "ff_slice_series", "series.slice_series", _on_coefficients),
    ("invseq.series", "tf_slice_series", "series.slice_series", _on_coefficients),
    ("invseq.series", "iterate_fe", "series.iterate_fe", _on_coefficients),
    ("invseq.series", "_conjecture_residual", "series.conjecture_residual", None),
)
