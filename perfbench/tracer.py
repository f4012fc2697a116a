"""Span tracing around cpmatch's public functions, installed from outside.

The tracer replaces each traced function in every ``cpmatch`` module that
binds it (``partition_interval`` is bound in ``cpmatch.rmq`` and
``cpmatch.index``, ``build_lcp`` in ``cpmatch.suffixes`` and
``cpmatch.persistence``) and patches ``RmqStructure`` methods on the class.
Nothing inside the library changes; the patches are undone on exit.

Spans are kept in flat arrays (name, start, end, parent, query id and, when
tracemalloc is on, retained bytes) and written out once at the end of a run.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
import weakref
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and counters while installed and ``recording``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.qid = array("i")
        self.mem = array("q")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.recording = False
        self.query_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._rmq_labels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._pending_rmq: dict[int, str] = {}
        self._reversed = None

    # -- span recording -------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.qid.append(self.query_id)
        self.mem.append(tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if tracemalloc.is_tracing():
            self.mem[idx] = tracemalloc.get_traced_memory()[0] - self.mem[idx]

    def _wrap(self, fn, name, before=None, after=None):
        """A stand-in for ``fn`` that records one span per call.

        ``name`` is a span name or a function of the call's arguments.
        Inside the span, ``before(args, kwargs)`` runs first and its result
        goes to ``after(args, kwargs, result, token)``, for labels and counters.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                token = before(args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, token)
                return result
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------

    # A traced name the library no longer has is an error, so that a renamed
    # or inlined layer is never reported as taking no time.

    def _patch_everywhere(self, module_name: str, attr: str, make) -> None:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            raise LookupError(f"perfbench tracer: {module_name}.{attr} is missing")
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if name != "cpmatch" and not name.startswith("cpmatch."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, replacement)

    def _patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            raise LookupError(f"perfbench tracer: {cls.__name__}.{attr} is missing")
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        import cpmatch  # noqa: F401  (loads every submodule)
        from cpmatch.rmq import RmqStructure

        def simple(module, attr, span):
            self._patch_everywhere(module, attr, lambda fn: self._wrap(fn, span))

        simple("cpmatch.corpus", "load_text", "corpus.load_text")
        self._patch_everywhere(
            "cpmatch.corpus", "reverse_text",
            lambda fn: self._wrap(fn, "corpus.reverse_text", after=self._note_reversed),
        )
        self._patch_everywhere(
            "cpmatch.suffixes", "build_ensemble",
            lambda fn: self._wrap(fn, lambda a, k: "suffixes.build_ensemble."
                                  + ("rev" if a[0] is self._reversed else "fwd")),
        )
        simple("cpmatch.suffixes", "build_suffix_array", "suffixes.build_suffix_array")
        simple("cpmatch.suffixes", "build_inverse", "suffixes.build_inverse")
        simple("cpmatch.suffixes", "build_lcp", "suffixes.build_lcp")
        self._patch_everywhere(
            "cpmatch.suffixes", "find_pattern_range",
            lambda fn: self._wrap(fn, "suffixes.find_pattern_range",
                                  *self._stats_delta(2, "sa_accesses", self._count_find)),
        )
        self._patch_method(
            RmqStructure, "__init__",
            lambda fn: self._wrap(fn, lambda a, k: "rmq.build." + self._rmq_label(a),
                                  after=self._note_rmq),
        )
        self._patch_method(RmqStructure, "rmq", lambda fn: self._wrap(fn, "rmq.rmq"))
        self._patch_method(RmqStructure, "psv", lambda fn: self._wrap(fn, "rmq.psv"))
        self._patch_method(RmqStructure, "nsv", lambda fn: self._wrap(fn, "rmq.nsv"))
        self._patch_everywhere(
            "cpmatch.rmq", "partition_interval",
            lambda fn: self._wrap(
                fn, lambda a, k: "rmq.partition_" + self._rmq_labels.get(a[0], "other"),
                *self._stats_delta(4, "rmq_calls", self._count_partition),
            ),
        )
        simple("cpmatch.index", "build_index", "index.build_index")
        self._patch_everywhere(
            "cpmatch.index", "assemble_index",
            lambda fn: self._wrap(fn, "index.assemble_index", before=self._note_assembly),
        )
        simple("cpmatch.index", "query", "index.query")
        simple("cpmatch.index", "map_via_psv_nsv", "index.map_psv_nsv")
        simple("cpmatch.index", "map_via_cmin", "index.map_cmin")
        simple("cpmatch.index", "emit_boundary_context", "index.emit_boundary_context")
        simple("cpmatch.index", "extract_context", "index.extract_context")
        simple("cpmatch.persistence", "save_index", "persistence.save_index")
        self._patch_everywhere(
            "cpmatch.persistence", "load_index",
            lambda fn: self._wrap(fn, lambda a, k: "persistence.load_index."
                                  + ("verify" if _arg(a, k, 1, "verify", True) else "parse")),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._reversed = None

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- labels and counters ---------------------------------------------

    def _note_reversed(self, args, kwargs, result, token) -> None:
        self._reversed = result

    def _note_assembly(self, args, kwargs) -> None:
        # assemble_index(text, fwd, rev, c_array) builds one RmqStructure
        # over each of these arrays; remember which array is which.
        fwd = _arg(args, kwargs, 1, "fwd")
        rev = _arg(args, kwargs, 2, "rev")
        c_array = _arg(args, kwargs, 3, "c_array")
        self._pending_rmq = {id(fwd.lcp): "fwd", id(rev.lcp): "rev", id(c_array): "c"}

    def _rmq_label(self, init_args) -> str:
        return self._pending_rmq.get(id(init_args[1]), "other")

    def _note_rmq(self, args, kwargs, result, token) -> None:
        self._rmq_labels[args[0]] = self._rmq_label(args)

    def _stats_delta(self, pos: int, field: str, count):
        """``before``/``after`` hooks passing a query's change in one counter."""

        def before(args, kwargs):
            stats = _arg(args, kwargs, pos, "stats")
            return stats, getattr(stats, field) if stats is not None else 0

        def after(args, kwargs, result, token):
            stats, start = token
            if stats is not None and self.query_id >= 0:
                count(result, getattr(stats, field) - start)

        return before, after

    def _count_find(self, result, sa_accesses: int) -> None:
        self.counters["find_pattern_range.calls"] += 1
        self.counters["find_pattern_range.hits"] += result is not None
        self.counters["find_pattern_range.sa_accesses"] += sa_accesses

    def _count_partition(self, result, rmq_calls: int) -> None:
        self.counters["partition.parts"] += len(result)
        self.counters["partition.rmq_calls"] += rmq_calls

    # -- aggregation and output -----------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Every recorded span as columns, with self time and self bytes."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        mem = np.frombuffer(self.mem, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        child_mem = np.bincount(parent[has_parent], weights=mem[has_parent],
                                minlength=len(dur))
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "qid": np.frombuffer(self.qid, dtype=np.int32),
            "dur": dur,
            "self": dur - child_time,
            "self_bytes": mem - child_mem,
            "bytes": mem,
        }

    def write(self, path: Path) -> None:
        """Save every span and the name table as one ``.npz`` file."""
        cols = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: cols[k] for k in ("name", "start", "end", "parent", "qid", "bytes")},
        )
