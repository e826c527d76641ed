"""Per-layer call counts and self times, taken from outside the program.

`Tracer.install()` replaces each traced public function or method of
`fermatosc` with a wrapper, on every binding that holds it: the defining
module, every `from .x import y` copy in the other modules, and class
aliases such as `__rmul__ = __mul__`.  Nothing under `src/` is edited.

A wrapper opens a span for the call.  A span's self time is its duration
minus the time of the traced spans it encloses.  Spans are aggregated per
name as they close (there are millions of `tower` spans per run), so only
the totals are kept in memory.
"""

from __future__ import annotations

import importlib
import time

# metric prefix -> (module, attribute path); a method is "Class.method"
TARGETS = {
    "tower.mul": ("fermatosc.tower", "FieldElement.__mul__"),
    "tower.add": ("fermatosc.tower", "FieldElement.__add__"),
    "tower.invert": ("fermatosc.tower", "TowerField.invert"),
    "tower.field_build": ("fermatosc.tower", "TowerField.__init__"),
    "hompoly.evaluate": ("fermatosc.hompoly", "HomPoly.evaluate"),
    "hompoly.pullback_to_line": ("fermatosc.hompoly", "pullback_to_line"),
    "hompoly.compose_matrix": ("fermatosc.hompoly", "HomPoly.compose_matrix"),
    "hompoly.branch_series": ("fermatosc.hompoly", "branch_series"),
    "hompoly.int_mult": ("fermatosc.hompoly", "int_mult"),
    "hompoly.univariate_resultant": ("fermatosc.hompoly",
                                     "univariate_resultant"),
    "hompoly.resultant_order": ("fermatosc.hompoly", "resultant_order"),
    "fermat.sextactic_points": ("fermatosc.fermat", "sextactic_points"),
    "fermat.osculating_conic_closed": ("fermatosc.fermat",
                                       "osculating_conic_closed"),
    "fermat.hyperosculating_conic": ("fermatosc.fermat",
                                     "hyperosculating_conic"),
    "fermat.osculating_conic_cayley": ("fermatosc.fermat",
                                       "osculating_conic_cayley"),
    "arrangements.census": ("fermatosc.arrangements", "census"),
    "arrangements.collinear_sextactic": ("fermatosc.arrangements",
                                         "collinear_sextactic"),
    "arrangements.build": ("fermatosc.arrangements", "build"),
    "symmetry.points_on_line": ("fermatosc.symmetry", "points_on_line"),
    "symmetry.tangent_concurrency": ("fermatosc.symmetry",
                                     "tangent_concurrency"),
    "symmetry.conic_common_points": ("fermatosc.symmetry",
                                     "conic_common_points"),
    "symmetry.verify_invariant_intersection": (
        "fermatosc.symmetry", "verify_invariant_intersection"),
    "cli.main": ("fermatosc.cli", "main"),
}


# results whose coefficient sizes feed tower.max_coeff_bits
COEFF_WATCH = ("tower.mul", "tower.invert")


def _import(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


def _coeff_bits(elem) -> int:
    nz = elem.nonzero_terms()
    if not nz:
        return 0
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for _, _, c in nz)


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds]
        self.stats = {name: [0, 0.0] for name in TARGETS}
        self.missing = []
        self.max_coeff_bits = 0
        self.lifts = 0           # branch_series calls made by int_mult
        self.attempts = 0        # resultant_order attempts, from its record
        self._stack = []         # open spans: [child seconds, name]
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {m: _import(m) for m, _ in TARGETS.values()}
        for name, (mod_name, path) in TARGETS.items():
            owner = modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if cls_path:
                # the class itself and any alias in its namespace
                bindings = [(owner, key) for key, val in vars(owner).items()
                            if val is original]
            else:
                bindings = [(mod, key) for mod in modules.values() if mod
                            for key, val in vars(mod).items()
                            if val is original]
            for target, key in bindings:
                self._restore.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        rec = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        after = self._after(name)
        is_lift = name == "hompoly.branch_series"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_lift and parent and parent[1] == "hompoly.int_mult":
                self.lifts += 1
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[0] += 1
                rec[1] += t1 - t0 - frame[0]
            if after is not None:
                after(result)
            if parent is not None:
                # the time of `after` is tracing overhead: charge it to nobody
                parent[0] += clock() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _after(self, name):
        """What to read from a traced call's result, if anything."""
        if name in COEFF_WATCH:
            def after(result):
                if result is not NotImplemented:
                    self.max_coeff_bits = max(self.max_coeff_bits,
                                              _coeff_bits(result))
            return after
        if name == "hompoly.resultant_order":
            def after(result):
                self.attempts += result[1]["attempts"]
            return after
        return None

    # -- reading ------------------------------------------------------------

    def counts(self) -> dict:
        """Exact counters only; these repeat between runs on one seed."""
        out = {f"{name}.calls": rec[0] for name, rec in self.stats.items()}
        out["tower.max_coeff_bits"] = self.max_coeff_bits
        out["hompoly.int_mult.lifts"] = self.lifts
        out["hompoly.resultant_order.attempts"] = self.attempts
        return out

    def self_times(self) -> dict:
        return {f"{name}.self_s": rec[1] for name, rec in self.stats.items()}
