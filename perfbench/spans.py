"""Spans around the package's public functions, recorded from outside.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper wherever the package holds the original: in the
defining module, and in every other module that imported the name with
`from ... import`. Rebinding only the defining module would miss those
calls. `Tracer.uninstall` puts every original back and checks that no
wrapper is left anywhere in the package.

A span is (name id, span id, parent span id, operation id, outermost,
start, end), appended in one step when the call returns, so an operation
stopped at its deadline leaves whole spans or none. A layer's self time is
its duration minus the time of its direct children; its inclusive (busy)
time counts only spans with no ancestor of the same name, so recursion is
not counted twice.
"""

import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "criterion", "linprog", "curves", "inflection", "series",
          "polynomials", "walls", "hessians")

NAME, SID, PARENT, OP, OUTER, START, END = range(7)


class Tracer:
    def __init__(self, package="wallcross"):
        self.package = package
        self.names = []        # name id -> "layer.function"
        self.name_ids = {}
        self.spans = []
        self.next_sid = 0
        self.stack = []
        self.active = []       # per name id: spans of that name open now
        self.op = -1
        self.flagged_ops = {}  # flag -> ids of operations that raised it
        self.counts = {}       # counter name -> count
        self._patched = []     # (module, attribute, original)

    # -- operations -----------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self.stack = []
        self.active = [0] * len(self.names)

    def end_op(self):
        self.begin_op(-1)

    def flag(self, name):
        self.flagged_ops.setdefault(name, set()).add(self.op)

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, on_result):
        nid = self.name_ids[name] = len(self.names)
        self.names.append(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack, active = tracer.stack, tracer.active
            sid = tracer.next_sid
            tracer.next_sid = sid + 1
            parent = stack[-1] if stack else -1
            outer = active[nid] == 0
            active[nid] += 1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_result is not None:
                    on_result(tracer, None, exc)
                raise
            finally:
                end = perf_counter()
                active[nid] -= 1
                if stack and stack[-1] == sid:
                    stack.pop()
                tracer.spans.append((nid, sid, parent, tracer.op, outer, start, end))
            if on_result is not None:
                on_result(tracer, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _package_modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if name == self.package or name.startswith(self.package + ".")]

    def install(self, hooks):
        """Wrap every public function of every layer; hooks maps
        "layer.function" to on_result(tracer, result, exception)."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        missing = set(hooks) - set(self.names)
        if missing:
            raise RuntimeError(f"hooks for functions that do not exist: {sorted(missing)}")
        for module in self._package_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, originals[id(obj)][1])
        self.end_op()

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        for module in self._package_modules():
            for attr, obj in vars(module).items():
                if getattr(getattr(obj, "__code__", None), "co_filename", None) == __file__:
                    raise RuntimeError(f"{module.__name__}.{attr} is still wrapped")

    # -- aggregation ----------------------------------------------------

    def stats(self):
        """Per "layer.function": calls, busy_s (inclusive, outermost spans
        only) and self_s."""
        children = {}
        for s in self.spans:
            if s[PARENT] >= 0:
                children[s[PARENT]] = children.get(s[PARENT], 0.0) + s[END] - s[START]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for s in self.spans:
            agg = out[self.names[s[NAME]]]
            dur = s[END] - s[START]
            agg["calls"] += 1
            agg["self_s"] += dur - children.get(s[SID], 0.0)
            if s[OUTER]:
                agg["busy_s"] += dur
        return out

    def layer_calls(self):
        calls = dict.fromkeys(LAYERS, 0)
        for s in self.spans:
            calls[self.names[s[NAME]].split(".", 1)[0]] += 1
        return calls

    def count_children(self, parent_name, child_name):
        pid, cid = self.name_ids[parent_name], self.name_ids[child_name]
        parents = {s[SID] for s in self.spans if s[NAME] == pid}
        return sum(1 for s in self.spans if s[NAME] == cid and s[PARENT] in parents)

    def spans_outside(self, layer, ancestor_name):
        """Names of `layer` functions called without an `ancestor_name`
        span at or above them."""
        aid = self.name_ids[ancestor_name]
        by_sid = {s[SID]: s for s in self.spans}
        bad = set()
        for s in self.spans:
            name = self.names[s[NAME]]
            if not name.startswith(layer + "."):
                continue
            cur = s
            while cur is not None and cur[NAME] != aid:
                cur = by_sid.get(cur[PARENT])
            if cur is None:
                bad.add(name)
        return sorted(bad)
