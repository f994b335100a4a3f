"""Spans and counters for the traced run, installed from outside bieigen.

The tracer wraps the public functions of each bieigen module. A function
imported by name into another module (``from .charts import metric_frame``)
is a separate attribute there, so every attribute of every loaded bieigen
module that holds the original function gets the wrapper; that also covers
the package attribute ``bieigen.classify``, which is the function, not the
module. ``Jet`` construction, ``*`` and ``/`` are counted, not spanned.

Spans stay in memory as flat arrays (name, start, end, parent) and are
written out once, at the end of the run.
"""

import sys
import time
from array import array

import numpy as np

LAYER_FUNCTIONS = {
    "bieigen.cli": ("main",),
    "bieigen.manifest": ("load_manifest", "build_map"),
    "bieigen.exprs": ("parse", "eval_jet"),
    "bieigen.charts": ("metric_frame", "laplacian_jet"),
    "bieigen.analysis": ("analyze_samples", "analyze_point", "bienergy_quadrature"),
    "bieigen.classify": ("classify", "fit_constants", "verdicts", "verify"),
    "bieigen.report": ("classification_dict", "to_json", "classification_csv",
                       "classification_text", "residual_table_text",
                       "residual_table_json", "residual_table_csv"),
}
JET_COUNTED = {"__init__": 0, "__mul__": 1, "__rmul__": 1,
               "__truediv__": 2, "__rtruediv__": 2}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.jet_counts = [0, 0, 0]  # Jet constructions, * calls, / calls
        self.report_bytes = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count_bytes):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count_bytes and isinstance(result, str):
                self.report_bytes += len(result.encode("utf-8"))
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bieigen" or n.startswith("bieigen.")]
        for modname, functions in LAYER_FUNCTIONS.items():
            module = sys.modules[modname]
            layer = modname.split(".")[1]
            for fname in functions:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original, layer == "report")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))
        jet = sys.modules["bieigen.jets"].Jet
        for attr, slot in JET_COUNTED.items():
            original = jet.__dict__[attr]
            setattr(jet, attr, self._counting(original, slot))
            self._restore.append((jet, attr, original))

    def _counting(self, fn, slot):
        counts = self.jet_counts

        def counted(*args):
            counts[slot] += 1
            return fn(*args)
        return counted

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """(name ids, durations, self times, root span index) per span."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.uint16, count=n).astype(np.intp)
        start = np.frombuffer(self.start, dtype=float, count=n)
        dur = np.frombuffer(self.end, dtype=float, count=n) - start
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        root = np.arange(n)
        for i in np.nonzero(has_parent)[0]:  # parents precede their children
            root[i] = root[parent[i]]
        return names, dur, dur - children, root

    def write(self, path):
        """One line per span: name, start and duration in microseconds, and
        the parent span's line number (-1 for a root)."""
        base = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_us\tdur_us\tparent\n")
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                handle.write(f"{self.names[nid]}\t{(s - base) * 1e6:.1f}\t"
                             f"{(e - s) * 1e6:.1f}\t{p}\n")
