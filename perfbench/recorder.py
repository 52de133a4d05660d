"""In-memory call recorder for the traced benchmark run.

The recorder wraps public gft functions from outside, in every module
namespace that binds them (``from .special import agm`` copies the binding,
so patching ``gft.special`` alone would miss the calls made from
``gft.modulus``).  Two kinds of wrapper keep the overhead bounded:

* counters, for the hot L0/L1 kernels: a call count, summed time and the
  time spent in traced children;
* spans, for L2 and above: (id, name, label, start, end, parent, leaf_s),
  where leaf_s is the time covered by counter-level children.

Self time is duration minus the time covered by traced children.  All
records stay in memory until the caller writes them out.
"""
from __future__ import annotations

import json
import time


class Recorder:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.counters: dict[str, list] = {}     # name -> [calls, total_s, child_s]
        self.spans: list[tuple] = []
        self.seen: dict[str, set] = {}          # name -> distinct argument tuples
        self.forward_in_phi = 0                 # forward moduli called under phi_*
        self._phi_open = 0
        self._frames = [[0.0, 0.0]]             # open calls: [span child s, leaf child s]
        self._span_ids = [None]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def counter(self, name: str, fn, distinct: bool = False, forward: bool = False):
        frames, clock = self._frames, self.clock
        stat = self.counters.setdefault(name, [0, 0.0, 0.0])
        seen = self.seen.setdefault(name, set()) if distinct else None
        rec = self

        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(args)
            if forward and rec._phi_open:
                rec.forward_in_phi += 1
            frame = [0.0, 0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0] + frame[1]
                frames[-1][1] += dt
        return wrapper

    def span(self, name: str, fn, distinct: bool = False, phi: bool = False,
             label=None):
        frames, span_ids, spans, clock = (self._frames, self._span_ids,
                                          self.spans, self.clock)
        seen = self.seen.setdefault(name, set()) if distinct else None
        rec = self

        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(args)
            rec._next_id += 1
            sid, parent = rec._next_id, span_ids[-1]
            tag = label(args, kwargs) if label is not None else None
            frame = [0.0, 0.0]
            frames.append(frame)
            span_ids.append(sid)
            if phi:
                rec._phi_open += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if phi:
                    rec._phi_open -= 1
                span_ids.pop()
                frames.pop()
                spans.append((sid, name, tag, t0, t1, parent, frame[1]))
                frames[-1][0] += t1 - t0
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, namespaces, original, wrapper) -> int:
        """Bind wrapper in place of original in every namespace binding it."""
        n = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    self._patched.append((ns, attr, original))
                    n += 1
        return n

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def span_self_times(self) -> dict[int, float]:
        """Self time of each span: duration minus its child spans' durations
        minus the time its counter-level children took."""
        self_s = {sid: (t1 - t0) - leaf for sid, _, _, t0, t1, _, leaf in self.spans}
        for _, _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                self_s[parent] -= t1 - t0
        return self_s

    def summary(self) -> dict:
        """Per-name calls, self_s and (where tracked) distinct_frac, plus the
        per-label inclusive span time."""
        out: dict[str, dict] = {}
        for name, (calls, total, child) in self.counters.items():
            out[name] = {"calls": calls, "self_s": total - child}
        self_s = self.span_self_times()
        labels: dict[str, float] = {}
        for sid, name, tag, t0, t1, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s[sid]
            if tag is not None:
                key = f"{name}.{tag}"
                labels[key] = labels.get(key, 0.0) + (t1 - t0)
        for name, seen in self.seen.items():
            calls = out.get(name, {}).get("calls", 0)
            out.setdefault(name, {"calls": 0, "self_s": 0.0})
            out[name]["distinct_frac"] = len(seen) / calls if calls else 0.0
        return {"functions": out, "labels": labels,
                "forward_in_phi": self.forward_in_phi}

    def dump(self, fh) -> None:
        """Write spans (one JSON line each) and counters to an open text file."""
        fh.write(json.dumps({"run_id": self.run_id, "counters": self.counters}) + "\n")
        for sid, name, tag, t0, t1, parent, leaf in self.spans:
            fh.write(json.dumps([self.run_id, sid, name, tag, t0, t1, parent, leaf]) + "\n")
