"""Host-time spans around the entry points of every ``repro`` layer.

The program has no wall-clock instrumentation of its own, so a traced
benchmark run patches it from the outside, at runtime, and restores every
attribute afterwards:

* every public method of every public class in a ``repro`` module is
  wrapped in a span named ``<layer>|<Class.method>``;
* a generator method is timed over each resume, not from call to return,
  because the simulator interleaves thousands of them;
* every simulator process body is wrapped the same way, so a resume that
  the event loop makes directly is charged to the layer whose code it
  runs, not to the event loop;
* a few private methods that are the only way into a layer
  (:data:`EXTRA_ENTRY_POINTS`) are wrapped too, and a few calls carry a
  count hook (:data:`COUNT_HOOKS`) that turns their arguments or result
  into a work count.

Spans are kept in memory as flat arrays (name, start, end, parent) and
written out by :meth:`LayerTracer.save`.  A span's *self time* is its
duration minus the part of it that its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

#: ``repro`` module prefix -> layer name; the longest matching prefix wins.
LAYER_OF_MODULE = {
    "repro.sim": "sim",
    "repro.sim.trace": "trace",
    "repro.mem": "mem",
    "repro.pcie": "pcie",
    "repro.virtio": "virtio",
    "repro.kvm": "kvm",
    "repro.scif": "scif",
    "repro.host": "scif",
    "repro.vphi": "vphi.other",
    "repro.vphi.frontend": "vphi.frontend",
    "repro.vphi.guest_libscif": "vphi.frontend",
    "repro.vphi.wait": "vphi.frontend",
    "repro.vphi.backend": "vphi.backend",
    "repro.vphi.ops": "vphi.backend",
    "repro.vphi.pool": "vphi.pool",
    "repro.vphi.qos": "vphi.qos",
    "repro.phi": "card",
    "repro.uos": "card",
    "repro.oscore": "card",
    "repro.traffic": "traffic",
}

#: modules whose classes are left unwrapped: the calendar queue is the
#: event loop's own data structure (a span per pop would double the
#: loop's cost and say nothing), and analysis/CLI code runs outside any
#: measured window.
SKIP_MODULES = ("repro.sim.calendar", "repro.analysis", "repro.cli",
                "repro.workloads", "repro.__main__")

#: private methods wrapped as entry points: ``(module, class, method)``.
EXTRA_ENTRY_POINTS = (
    ("repro.vphi.backend", "VPhiBackend", "_drain"),
    ("repro.vphi.pool", "CardArbiter", "_select"),
)


def _phys_bytes(method: str):
    """Byte count of one physical-memory copy call, from its arguments."""
    def hook(tracer, args, kwargs, result):
        # copy_within / an overlapping copy() re-enter read + write:
        # count the bytes once, at the outermost physical-memory call
        if tracer.parent_name().startswith("mem|PhysicalMemory."):
            return 0
        if method == "read_into":
            return len(args[2] if len(args) > 2 else kwargs["out"])
        if method == "write":
            data = args[2] if len(args) > 2 else kwargs["data"]
            return len(data) * getattr(getattr(data, "dtype", None), "itemsize", 1)
        if method == "copy":
            return args[4] if len(args) > 4 else kwargs["nbytes"]
        return args[2] if len(args) > 2 else kwargs["nbytes"]
    return hook


def _pinned_pages(tracer, args, kwargs, result):
    return len(result._vpns)


def _sg_entries(tracer, args, kwargs, result):
    return len(result)


def _descriptors(tracer, args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs["out"]
    inb = args[2] if len(args) > 2 else kwargs["inb"]
    return len(out) + len(inb)


def _cancelled(tracer, args, kwargs, result):
    # CalendarQueue.cancel tombstones a live entry; a second cancel of the
    # same entry is a no-op.  Called *before* the wrapped method runs.
    return int(args[1][2] is not None)


#: ``(module, class, method) -> (counter, hook, when)``: the hook turns one
#: call into an amount added to ``counter``; ``when`` is ``"pre"`` (from the
#: arguments, before the call) or ``"post"`` (may read the result).
COUNT_HOOKS = {
    ("repro.mem.address_space", "AddressSpace", "pin"):
        ("mem.pages_pinned", _pinned_pages, "post"),
    ("repro.mem.address_space", "AddressSpace", "sg_list"):
        ("mem.sg_entries", _sg_entries, "post"),
    ("repro.virtio.ring", "Vring", "add_chain"):
        ("virtio.descs", _descriptors, "pre"),
    ("repro.sim.calendar", "CalendarQueue", "cancel"):
        ("sim.cancelled", _cancelled, "pre"),
    **{("repro.mem.physical", "PhysicalMemory", m):
       ("mem.bytes_copied", _phys_bytes(m), "pre")
       for m in ("read", "read_into", "write", "copy", "iter_views", "fill")},
}


def layer_of(module: str) -> str:
    """The layer a module belongs to (``"bench"`` outside ``repro``)."""
    best = ""
    for prefix in LAYER_OF_MODULE:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    if best:
        return LAYER_OF_MODULE[best]
    return "other" if module.startswith("repro") else "bench"


class LayerTracer:
    """Records nested host-time spans and call counts while installed.

    Spans are recorded whenever the tracer is installed; call counts only
    inside the measured window (:meth:`open_window` ..
    :meth:`close_window`), whose bounds :func:`self_times` clips to.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: host seconds from call to return, per generator span name.
        self.lifetimes: Counter = Counter()
        self.recording = False
        self.counting = False
        self.window: tuple[float, float] = (0.0, 0.0)
        self._undo: list[tuple[object, str, object]] = []
        self._src_root = ""

    # -- span bookkeeping --------------------------------------------------
    def name_id_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        if not self.recording:
            return -1
        i = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name_id.append(nid)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        if i >= 0:
            self.end[i] = perf_counter()
            self._stack.pop()

    def parent_name(self) -> str:
        """Name of the innermost open span ("" at top level)."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else ""

    def open_window(self) -> None:
        self.counting = True
        self.window = (perf_counter(), 0.0)

    def close_window(self) -> None:
        self.counting = False
        self.window = (self.window[0], perf_counter())

    @contextmanager
    def suspended(self):
        """Record and count nothing inside the block."""
        state = self.recording, self.counting
        self.recording = self.counting = False
        try:
            yield
        finally:
            self.recording, self.counting = state

    def reset(self) -> None:
        """Drop recorded spans and counts (patches stay installed)."""
        for buf in (self.name_id, self.start, self.end, self.parent):
            del buf[:]
        self._stack.clear()
        self.calls.clear()
        self.counts.clear()
        self.lifetimes.clear()
        self.window = (0.0, 0.0)

    # -- wrappers ----------------------------------------------------------
    def timed(self, nid: int, gen):
        """``gen`` wrapped by :meth:`timed_generator`, under its own name
        (a process takes its name from its generator)."""
        timed = self.timed_generator(nid, gen)
        timed.__name__, timed.__qualname__ = gen.__name__, gen.__qualname__
        return timed

    def timed_generator(self, nid: int, gen):
        """Drive ``gen`` exactly as ``yield from`` would, timing each resume."""
        born = perf_counter()
        value, exc = None, None
        while True:
            i = self._open(nid)
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                self._close(i)
                self._lived(nid, born)
                return stop.value
            except BaseException:
                self._close(i)
                self._lived(nid, born)
                raise
            self._close(i)
            try:
                value, exc = (yield target), None
            except GeneratorExit:
                i = self._open(nid)
                try:
                    gen.close()
                finally:
                    self._close(i)
                raise
            except BaseException as err:  # delivered into gen, as yield from does
                value, exc = None, err

    def _lived(self, nid: int, born: float) -> None:
        if self.counting:
            self.lifetimes[nid] += perf_counter() - born

    def wrap(self, name: str, fn, hook=None):
        """A wrapper recording one span per call (per resume for a
        generator function), plus the call count and an optional hook."""
        nid = self.name_id_of(name)
        calls = self.calls
        counter, count_fn, when = hook or (None, None, None)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if self.counting:
                    calls[nid] += 1
                    if count_fn is not None:
                        self.counts[counter] += count_fn(self, args, kwargs, None)
                return self.timed(nid, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                counting = self.counting
                if counting:
                    calls[nid] += 1
                    if when == "pre":
                        self.counts[counter] += count_fn(self, args, kwargs, None)
                i = self._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(i)
                if counting and when == "post":
                    self.counts[counter] += count_fn(self, args, kwargs, result)
                return result
        return functools.wraps(fn)(wrapper)

    # -- install / uninstall -----------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_member(self, cls, attr: str, layer: str, hook=None) -> None:
        raw = cls.__dict__[attr]
        name = f"{layer}|{cls.__name__}.{attr}"
        if isinstance(raw, staticmethod):
            self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__, hook)))
        elif isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__, hook)))
        elif inspect.isfunction(raw):
            self._patch(cls, attr, self.wrap(name, raw, hook))

    def install(self) -> "LayerTracer":
        """Patch every ``repro`` layer; returns self."""
        import enum

        import repro
        from repro.sim import core

        self._src_root = str(Path(repro.__file__).resolve().parent.parent)
        names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
        for mod in map(importlib.import_module,
                       (n for n in names if not n.startswith(SKIP_MODULES))):
            layer = layer_of(mod.__name__)
            for cname, cls in vars(mod).items():
                if (not inspect.isclass(cls) or cls.__module__ != mod.__name__
                        or cname.startswith("_")
                        or issubclass(cls, (BaseException, enum.Enum))):
                    continue
                for attr in list(cls.__dict__):
                    if attr.startswith("_"):
                        continue
                    hook = COUNT_HOOKS.get((mod.__name__, cname, attr))
                    self._wrap_member(cls, attr, layer, hook)
        for (mod_name, cname, attr), hook in COUNT_HOOKS.items():
            if mod_name.startswith(SKIP_MODULES):  # count-only: no span
                cls = getattr(importlib.import_module(mod_name), cname)
                self._patch(cls, attr, self._count_only(cls.__dict__[attr], hook))
        for mod_name, cname, attr in EXTRA_ENTRY_POINTS:
            cls = getattr(importlib.import_module(mod_name), cname)
            self._wrap_member(cls, attr, layer_of(mod_name))
        self._wrap_processes(core)
        self.recording = True
        return self

    def _count_only(self, fn, hook):
        counter, count_fn, _ = hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.counting:
                self.counts[counter] += count_fn(self, args, kwargs, None)
            return fn(*args, **kwargs)
        return wrapper

    def code_layer(self, code) -> str:
        """Layer of the module a code object was compiled from."""
        path = Path(code.co_filename)
        try:
            rel = path.resolve().relative_to(self._src_root)
        except ValueError:
            return "bench"
        return layer_of(".".join(rel.with_suffix("").parts))

    def _wrap_processes(self, core) -> None:
        """Time every process body per resume, and every ``call_at``
        callback, under the layer that owns its code."""
        tracer = self
        timed_code = LayerTracer.timed_generator.__code__
        init = core.Process.__init__
        call_at = core.Simulator.call_at

        @functools.wraps(init)
        def process_init(proc, sim, gen, name="", domain=None):
            code = getattr(gen, "gi_code", None)
            # a body returned by a wrapped generator method is timed already
            if code is not None and code is not timed_code:
                nid = tracer.name_id_of(
                    f"{tracer.code_layer(code)}|proc:{code.co_qualname}")
                gen = tracer.timed(nid, gen)
            init(proc, sim, gen, name, domain)

        @functools.wraps(call_at)
        def timed_call_at(sim, when, thunk):
            code = getattr(getattr(thunk, "__func__", thunk), "__code__", None)
            if code is not None:
                nid = tracer.name_id_of(
                    f"{tracer.code_layer(code)}|cb:{code.co_qualname}")
                inner = thunk

                def thunk():
                    i = tracer._open(nid)
                    try:
                        inner()
                    finally:
                        tracer._close(i)
            call_at(sim, when, thunk)

        self._patch(core.Process, "__init__", process_init)
        self._patch(core.Simulator, "call_at", timed_call_at)

    def uninstall(self) -> None:
        self.recording = False
        self.counting = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        """Write the recorded spans out as ``.npz`` (names alongside)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), window=np.array(self.window),
                 **self.arrays())

    def per_name(self) -> dict[str, dict]:
        """``{span name: {"self_s", "incl_s", "calls", "life_s"}}`` inside
        the window (``life_s``: call-to-return host seconds of generators)."""
        arr = self.arrays()
        selfs, incl = self_times(arr["start"], arr["end"], arr["parent"], *self.window)
        n = len(self.names)
        ids = arr["name_id"]
        self_by = np.bincount(ids, weights=selfs, minlength=n)
        incl_by = np.bincount(ids, weights=incl, minlength=n)
        return {name: {"self_s": float(self_by[i]), "incl_s": float(incl_by[i]),
                       "calls": self.calls.get(i, 0),
                       "life_s": self.lifetimes.get(i, 0.0)}
                for i, name in enumerate(self.names)}


def self_times(start, end, parent, w0: float = -np.inf, w1: float = np.inf):
    """Per-span ``(self, inclusive)`` seconds, both clipped to ``[w0, w1]``.

    A span's self time is its (clipped) duration minus the (clipped)
    durations of its direct children.  Children nest inside their parent
    and never overlap one another (one thread, one stack), so that
    difference is exactly the part of the span no child covers.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    incl = np.clip(np.minimum(end, w1) - np.maximum(start, w0), 0.0, None)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=incl[has_parent],
                          minlength=len(start))
    return incl - covered, incl
