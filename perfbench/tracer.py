"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces every public function of every cp2tori module,
and the ``quad`` each module imports from scipy, by a wrapper in each
module namespace that looks it up, so a call is recorded where its caller
finds the name (``cp2tori.cli.energy_mironov`` is the span
``functionals.energy_mironov``, ``cp2tori.family.quad`` the span
``family.quad``).  The program itself carries no tracing code.

A span is (name, parent, start, end), kept in flat arrays in memory and
written out once at the end, by ``save``, as an .npz of ``name`` (index
into the JSON list ``names``), ``parent`` (span index, -1 for a root),
``start`` (``time.perf_counter`` seconds), ``duration`` (seconds) and
``attrs`` (JSON, span index -> certificate fields).  Two wrappers record more: each evaluator
passed to ``certify_lower_bound`` or ``replay_certificate`` gets its own
span, so evaluator time and boxes replayed are measured, and the
certificate fields (target, boxes examined, retained) are kept with the
span that produced or replayed them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

MODULES = ("elliptic", "family", "functionals", "interval", "bounds",
           "immersion", "periodicity", "cli", "mnk")
# Calls inside the elliptic kernels (complete_k in every jacobi_sn) are not
# layer boundaries and would double the span count of a sweep.
INNER_UNSPANNED = ("elliptic",)
CERTIFY_EVAL = "interval.certify_lower_bound.evaluator"
REPLAY_EVAL = "interval.replay_certificate.evaluator"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.nid = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.attrs = {}
        self._stack = []
        self._patched = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, on_call=None, on_return=None):
        """``fn`` wrapped so that each call records a span named ``name``.
        ``on_call(index, args, kwargs)`` may rewrite the arguments, and
        ``on_return(index, result)`` sees the result."""
        nid = self._name_id(name)
        nids, parents, t0s, t1s, stack = self.nid, self.parent, self.t0, self.t1, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(t0s)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(i)
            if on_call is not None:
                args, kwargs = on_call(i, args, kwargs)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(i, result)
            return result

        return traced

    # -- installing the wrappers ------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"cp2tori.{m}") for m in MODULES}
        hooks = {"interval.certify_lower_bound": self._certify_hooks(),
                 "interval.replay_certificate": self._replay_hooks()}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if home == mod.__name__ and short in INNER_UNSPANNED:
                    continue
                if home.startswith("cp2tori."):
                    name = f"{home.split('.', 1)[1]}.{attr}"
                elif attr == "quad" and home.startswith("scipy."):
                    name = f"{short}.quad"
                else:
                    continue
                key = (name, obj)
                if key not in wrappers:
                    wrappers[key] = self.span(name, obj, *hooks.get(name, ()))
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[key])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _certify_hooks(self):
        evaluator_span = functools.partial(self.span, CERTIFY_EVAL)

        def on_call(i, args, kwargs):
            if "evaluator" in kwargs:
                kwargs = dict(kwargs, evaluator=evaluator_span(kwargs["evaluator"]))
            else:
                args = args[:1] + (evaluator_span(args[1]),) + args[2:]
            return args, kwargs

        def on_return(i, cert):
            self.attrs[i] = {"target": cert.target,
                             "examined": int(cert.boxes_examined),
                             "retained": int(cert.retained_count)}

        return on_call, on_return

    def _replay_hooks(self):
        evaluator_span = functools.partial(self.span, REPLAY_EVAL)

        def on_call(i, args, kwargs):
            cert = args[0] if args else kwargs["cert"]
            self.attrs[i] = {"target": cert.target}
            if "evaluator_scalar" in kwargs:
                kwargs = dict(kwargs, evaluator_scalar=evaluator_span(kwargs["evaluator_scalar"]))
            else:
                args = args[:1] + (evaluator_span(args[1]),) + args[2:]
            return args, kwargs

        return on_call, None

    # -- reading the spans ------------------------------------------------

    def arrays(self):
        """(name index, parent, start, end) as numpy arrays; a span still
        open has end 0 and should not exist when this is called."""
        return (np.frombuffer(self.nid, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.t0, dtype=np.float64).copy(),
                np.frombuffer(self.t1, dtype=np.float64).copy())

    def save(self, path):
        nid, parent, t0, t1 = self.arrays()
        np.savez(path, name=nid.astype(np.int16), parent=parent.astype(np.int32),
                 start=t0, duration=(t1 - t0).astype(np.float32),
                 names=np.array(json.dumps(self.names)),
                 attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})))


class SpanTable:
    """Durations, self times and the enclosing operation of every span."""

    def __init__(self, tracer, op_prefix="op."):
        self.names = tracer.names
        self.attrs = tracer.attrs
        self.nid, self.parent, t0, t1 = tracer.arrays()
        self.dur = t1 - t0
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_time = self.dur - child
        # root of each span by pointer jumping
        root = np.where(has_parent, self.parent, np.arange(self.dur.size))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root
        self.ops = {}  # workload -> list of op span indices
        for i, name in enumerate(self.names):
            if name.startswith(op_prefix):
                self.ops[name[len(op_prefix):]] = np.flatnonzero(self.nid == i).tolist()

    def ids(self, name):
        return self.names.index(name) if name in self.names else -1

    def per_op(self, workload, name, what):
        """One value per operation of ``workload``: the number of ``name``
        spans in it, or the sum of their durations or self times."""
        k = self.ids(name)
        sel = (self.nid == k)
        out = []
        for op in self.ops.get(workload, []):
            m = sel & (self.root == op)
            if what == "calls":
                out.append(float(m.sum()))
            elif what == "s":
                out.append(float(self.dur[m].sum()))
            else:
                out.append(float(self.self_time[m].sum()))
        return out

    def spans_in(self, workload, name):
        k = self.ids(name)
        ops = self.ops.get(workload, [])
        return np.flatnonzero((self.nid == k) & np.isin(self.root, ops))
