"""Boundary spans for the traced run, and the per-layer metrics built from them.

The traced process swaps catphase functions, at the module bindings through
which one layer calls another, for timing pass-throughs.  Each call becomes
a span (name, start, end, parent, job, ok, work) kept in flat arrays and
written once at the end.  Nothing inside catphase changes, and an untraced
process never imports the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from array import array
from time import perf_counter

import numpy as np

# (module, binding, span name).  A function imported into several modules is
# wrapped at each binding, so calls made through any of them are seen.
BOUNDARIES = (
    ("catphase.cli", "main", "cli.main"),
    ("catphase.cli", "build_spectrum", "phasedist.build_spectrum"),
    ("catphase.cli", "one_mode_coefficients", "phasedist.one_mode_coefficients"),
    ("catphase.cli", "eval_phase_dist", "phasedist.eval"),
    ("catphase.cli", "eval_one_mode_dist", "phasedist.eval"),
    ("catphase.cli", "trig_moments", "phasedist.moments"),
    ("catphase.cli", "phase_mean_var", "phasedist.moments"),
    ("catphase.cli", "chi", "quasiprob.chi"),
    ("catphase.cli", "w", "quasiprob.w"),
    ("catphase.cli", "normalization_constant", "states.normalization_constant"),
    ("catphase.phasedist", "build_spectrum", "phasedist.build_spectrum"),
    ("catphase.phasedist", "one_mode_coefficients", "phasedist.one_mode_coefficients"),
    ("catphase.phasedist", "fourier_coefficient", "phasedist.fourier_coefficient"),
    ("catphase.phasedist", "eval_phase_dist", "phasedist.eval"),
    ("catphase.phasedist", "eval_one_mode_dist", "phasedist.eval"),
    ("catphase.phasedist", "trig_moments", "phasedist.moments"),
    ("catphase.phasedist", "phase_mean_var", "phasedist.moments"),
    ("catphase.phasedist", "i_n_combo", "specfun.i_n_combo"),
    ("catphase.phasedist", "normalization_constant", "states.normalization_constant"),
    ("catphase.specfun", "bessel_i_ratio", "specfun.bessel_i_ratio"),
    ("catphase.quasiprob", "chi", "quasiprob.chi"),
    ("catphase.quasiprob", "w", "quasiprob.w"),
    ("catphase.quasiprob", "w_symmetrized", "quasiprob.w_symmetrized"),
    ("catphase.quasiprob", "normalization_constant", "states.normalization_constant"),
    ("catphase.oracle", "w", "quasiprob.w"),
    ("catphase.oracle", "w_symmetrized", "quasiprob.w_symmetrized"),
    ("catphase.oracle", "normalization_constant", "states.normalization_constant"),
    ("catphase.oracle", "quadrature_phase_dist", "oracle.quadrature_phase_dist"),
    ("catphase.oracle", "quadrature_one_mode", "oracle.quadrature_one_mode"),
    ("catphase.oracle", "quadrature_normalization", "oracle.quadrature_normalization"),
    ("catphase.oracle", "fock_chi_oracle", "oracle.fock_chi_oracle"),
)

SPECTRUM_SPANS = ("phasedist.build_spectrum", "phasedist.one_mode_coefficients")
ORACLE_SPANS = (
    "oracle.quadrature_phase_dist",
    "oracle.quadrature_one_mode",
    "oracle.quadrature_normalization",
    "oracle.fock_chi_oracle",
)
MODULES = ("specfun", "phasedist", "states", "quasiprob", "oracle", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


# Work recorded on a span, from its arguments and result.
def _note_combo(rec, args, kwargs, result):
    key = (_arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "branch"))
    repeat = key in rec.seen
    rec.seen.add(key)
    return 1.0 if repeat else 0.0


def _note_spectrum(rec, args, kwargs, result):
    return float(getattr(result, "n_used", 0))


def _note_eval(rec, args, kwargs, result):
    return float(getattr(_arg(args, kwargs, 0, "spectrum"), "n_used", 0)) * np.size(result)


def _note_w(rec, args, kwargs, result):
    return float(np.size(result))


NOTES = {
    "specfun.i_n_combo": _note_combo,
    "phasedist.build_spectrum": _note_spectrum,
    "phasedist.one_mode_coefficients": _note_spectrum,
    "phasedist.eval": _note_eval,
    "quasiprob.w": _note_w,
}

FIELDS = (
    ("name", "i"),
    ("parent", "i"),
    ("job", "i"),
    ("ok", "b"),
    ("start", "d"),
    ("end", "d"),
    ("work", "d"),
)


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {field: array(code) for field, code in FIELDS}
        self._stack: list[int] = []
        self.job = -1
        self.seen: set = set()

    def begin_job(self, job: int) -> None:
        self.job = job
        self.seen.clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        note = NOTES.get(name)
        c = self.cols
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(c["start"])
            c["name"].append(nid)
            c["parent"].append(stack[-1] if stack else -1)
            c["job"].append(self.job)
            c["ok"].append(1)
            c["end"].append(0.0)
            c["work"].append(0.0)
            stack.append(idx)
            c["start"].append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                c["ok"][idx] = 0
                raise
            finally:
                c["end"][idx] = perf_counter()
                stack.pop()
            if note is not None:
                c["work"][idx] = note(self, args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict:
        out = {f: np.frombuffer(col, dtype=col.typecode).copy() for f, col in self.cols.items()}
        out["names"] = np.array(json.dumps(self.names))
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def merge(self, path, job: int) -> None:
        """Append the spans of a child process's file, under ``job``."""
        with np.load(path) as data:
            names = json.loads(str(data["names"]))
            remap = np.array([self.name_id(n) for n in names], dtype=np.int32)
            base = len(self.cols["start"])
            parent = data["parent"]
            cols = {
                "name": remap[data["name"]],
                "parent": np.where(parent >= 0, parent + base, -1),
                "job": np.full(parent.shape, job),
                "ok": data["ok"],
                "start": data["start"],
                "end": data["end"],
                "work": data["work"],
            }
        for field, code in FIELDS:
            self.cols[field].extend(np.asarray(cols[field]).astype(code).tolist())


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every boundary that exists; yield the list of absent ones.

    A boundary whose module or binding no longer exists is reported as absent
    instead of failing the run.  Originals are restored on exit.
    """
    saved, absent = [], []
    for module_name, attr, span in BOUNDARIES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(f"{module_name}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            absent.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, recorder.wrap(fn, span))
    try:
        yield absent
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def summarize(spans: dict, busy_s: float) -> dict:
    """Per-layer metrics from span arrays; ``busy_s`` is the traced job time."""
    names = json.loads(str(spans["names"]))
    ids = {n: i for i, n in enumerate(names)}
    name, parent, work = spans["name"], spans["parent"], spans["work"]
    ok = spans["ok"].astype(bool)
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_s = dur - covered

    def mask(span: str) -> np.ndarray:
        return name == ids.get(span, -1)

    def under(targets) -> np.ndarray:
        """Index of each span's nearest ancestor-or-self in ``targets``, else -1."""
        target_ids = {ids[t] for t in targets if t in ids}
        anc = [-1] * name.size
        for i, (n, p) in enumerate(zip(name.tolist(), parent.tolist())):
            anc[i] = i if n in target_ids else (anc[p] if p >= 0 else -1)
        return np.array(anc, dtype=int)

    m = {}
    for span in (
        "specfun.i_n_combo",
        "specfun.bessel_i_ratio",
        "phasedist.build_spectrum",
        "phasedist.one_mode_coefficients",
        "phasedist.fourier_coefficient",
        "states.normalization_constant",
        "quasiprob.w",
        "quasiprob.w_symmetrized",
        "quasiprob.chi",
        "cli.main",
        *ORACLE_SPANS,
    ):
        m[f"{span}.calls"] = int(mask(span).sum())
        m[f"{span}.self_s"] = float(self_s[mask(span)].sum())
    for span in (*SPECTRUM_SPANS, "quasiprob.w"):
        m[f"{span}.errors"] = int((mask(span) & ~ok).sum())

    combo = mask("specfun.i_n_combo")
    m["specfun.i_n_combo.repeat_frac"] = float(work[combo].mean()) if combo.any() else 0.0
    spectrum = under(SPECTRUM_SPANS)
    in_spectrum = combo & (spectrum >= 0)
    wasted = in_spectrum & ~ok[spectrum]
    m["phasedist.wasted_frac"] = float(wasted.sum() / max(1, in_spectrum.sum()))
    spectra = mask(SPECTRUM_SPANS[0]) | mask(SPECTRUM_SPANS[1])
    m["phasedist.terms"] = int(work[spectra & ok].sum())

    moments = mask("phasedist.moments")
    from_moments = has_parent & moments[parent]
    recomputed = mask("phasedist.fourier_coefficient") & from_moments
    m["phasedist.trig_moments.recomputed"] = int(recomputed.sum())
    m["phasedist.moments.self_s"] = float(self_s[moments].sum())
    ev = mask("phasedist.eval")
    m["phasedist.eval.self_s"] = float(self_s[ev].sum())
    m["phasedist.eval.ops"] = int(work[ev].sum())

    w = mask("quasiprob.w")
    points = int(work[w].sum())
    m["quasiprob.w.points"] = points
    m["quasiprob.w.ns_per_point"] = 1e9 * m["quasiprob.w.self_s"] / points if points else 0.0
    m["oracle.nodes"] = int(work[w & (under(ORACLE_SPANS) >= 0)].sum())

    self_by_name = np.bincount(name, weights=self_s, minlength=len(names))
    spanned = 0.0
    for module in MODULES:
        t = sum(float(t) for n, t in zip(names, self_by_name) if n.split(".")[0] == module)
        spanned += t
        m[f"{module}.self_frac"] = t / busy_s if busy_s > 0 else 0.0
    m["unspanned.self_frac"] = max(0.0, 1.0 - spanned / busy_s) if busy_s > 0 else 0.0
    return m
