"""Outside-in span recorder for the bohrlab layer modules.

The library has no spans of its own, so this module records them from the
benchmark's side: it replaces each public function of a layer module with a
timing wrapper at every place a ``bohrlab`` module binds it (for example
``bohrlab.extractor.dft``, bound by ``from .spectral import dft``), plus the
two ``TrigPoly`` methods, and puts the originals back afterwards.  Nothing
under ``src/`` is edited.

Spans are columns of compact arrays (name, parent, instance, start, end), kept
in memory and written out once at the end of a run: the worst-k workload makes
over a million elementary spans per instance.  A few wrappers also count work
from argument shapes (phase-table cells, translates rolled, Bohr members), and
``members_mask`` runs under tracemalloc to report its peak allocation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import tracemalloc
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("groups", "spectral", "bohr", "sets", "extractor", "verify", "serialize")

# Span names grouped into the families the per-layer metrics report.
ELEM_CHAR = {
    f"groups.{f}"
    for f in (
        "check_elem", "check_char", "rank_of_elem", "rank_of_char", "elem_at",
        "char_at", "pairing", "char_eval", "strides",
    )
}
FFT = {f"spectral.{f}" for f in ("dft", "idft", "convolve", "reflect", "triple_convolve")}
DEFINITIONAL = {
    f"spectral.{f}"
    for f in (
        "dft_definitional", "idft_definitional", "synthesize",
        "convolve_definitional", "triple_convolve_definitional",
    )
}
TRIGPOLY = {"extractor.TrigPoly.__post_init__", "extractor.TrigPoly.evaluate"}
STAGES = ("normalize_means", "large_spectrum", "find_witness", "remainder_bound_check", "bohr_from_trigpoly")


class Recorder:
    """Span columns plus per-instance work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("H")
        self.parent = array("i")
        self.instance_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.instance = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.member_peaks: dict[int, list[float]] = defaultdict(list)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key: str, amount: float) -> None:
        self.counts[self.instance][key] += amount

    def parent_name(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name_col[top]]

    def columns(self) -> dict[str, np.ndarray]:
        # Copies, so that no numpy view pins the arrays against further appends.
        return {
            "name": np.frombuffer(self.name_col, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "instance": np.frombuffer(self.instance_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(json.dumps(self.names)), **self.columns())


# --- work counted from arguments and results ----------------------------------

def _count_phase_table(rec: Recorder, args, out) -> None:
    g, freqs, coords = args
    rec.count("groups.phase_table.cells", freqs.shape[0] * coords.shape[0] * g.ndim)


def _count_conv_translates(rec: Recorder, args, out) -> None:
    rec.count("spectral.conv_translates", int(np.count_nonzero(args[1].values)))


def _count_sumset(rec: Recorder, args, out) -> None:
    rec.count("sets.sumset.translates", args[0].size + args[1].size)


def _count_members(rec: Recorder, args, out) -> None:
    # Called after the span has closed, so the open span is the caller.
    if rec.parent_name() == "verify.good_shift_set":
        rec.count("verify.good_shift.translates", int(out.sum()))


COUNTERS = {
    "groups.phase_table": _count_phase_table,
    "spectral.convolve_definitional": _count_conv_translates,
    "sets.sumset_ABmB": _count_sumset,
    "bohr.members_mask": _count_members,
}
UNDER_TRACEMALLOC = {"bohr.members_mask"}


def _wrap(rec: Recorder, fn, name: str):
    nid = rec.name_id(name)
    counter = COUNTERS.get(name)
    traced_memory = name in UNDER_TRACEMALLOC

    def wrapper(*args, **kwargs):
        if traced_memory:
            tracemalloc.start()
        idx = len(rec.start)
        rec.name_col.append(nid)
        rec.parent.append(rec.stack[-1])
        rec.instance_col.append(rec.instance)
        rec.end.append(0.0)
        rec.stack.append(idx)
        rec.start.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end[idx] = perf_counter()
            rec.stack.pop()
            if traced_memory:
                rec.member_peaks[rec.instance].append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
        if counter is not None:
            counter(rec, args, out)
        return out

    return functools.wraps(fn)(wrapper)


class Tracer:
    """Finds every binding site once; ``active`` swaps the wrappers in and out."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        mods = [m for n, m in sorted(sys.modules.items()) if n == "bohrlab" or n.startswith("bohrlab.")]
        self.patches: list[tuple[object, str, object, object]] = []
        for layer in LAYERS:
            mod = importlib.import_module(f"bohrlab.{layer}")
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = _wrap(rec, fn, f"{layer}.{attr}")
                for m in mods:
                    for site, value in vars(m).items():
                        if value is fn:
                            self.patches.append((m, site, fn, wrapper))
        trigpoly = importlib.import_module("bohrlab.extractor").TrigPoly
        for meth in ("__post_init__", "evaluate"):
            fn = vars(trigpoly)[meth]
            self.patches.append((trigpoly, meth, fn, _wrap(rec, fn, f"extractor.TrigPoly.{meth}")))

    @contextmanager
    def active(self, instance: int):
        self.rec.instance = instance
        for owner, site, _, wrapper in self.patches:
            setattr(owner, site, wrapper)
        try:
            yield
        finally:
            for owner, site, fn, _ in self.patches:
                setattr(owner, site, fn)

    def restored(self) -> bool:
        return all(getattr(owner, site) is fn for owner, site, fn, _ in self.patches)


# --- per-layer metrics from the span columns ----------------------------------

def span_totals(rec: Recorder, instances=None) -> dict[str, np.ndarray]:
    """Per-name call counts, inclusive and self time (seconds), optionally
    restricted to some instance ids.  Self time is a span's duration minus the
    duration of its direct children."""
    cols = rec.columns()
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    keep = np.ones(dur.size, dtype=bool) if instances is None else np.isin(cols["instance"], instances)
    name = cols["name"][keep]
    n = len(rec.names)
    return {
        "calls": np.bincount(name, minlength=n),
        "total": np.bincount(name, weights=dur[keep], minlength=n),
        "self": np.bincount(name, weights=self_time[keep], minlength=n),
        "top_level_s": float(dur[keep & ~nested].sum()),
    }


def family(rec: Recorder, column: np.ndarray, selected) -> float:
    return float(sum(column[i] for i, name in enumerate(rec.names) if name in selected))
