"""Layer tracing for the benchmark's traced run.

The traced run charges host time to the ``src/repro`` packages (the
layers) without changing any file under ``src/``: :func:`install` wraps
the functions and methods of every layer module from here, before any
:class:`~repro.sim.core.Engine` or rig is built, and collects the layer
objects that carry public counters as they are constructed.

* A *span* opens only where a call crosses from one layer into another;
  a call inside the layer it came from runs straight through, so a
  layer's self time is its spans' time minus the time of the spans they
  caused (the layer-boundary rule of per-layer tracing).
* Generator functions (``Port._ingress_loop``, ``PEACH2Chip.handle_tlp``
  and most other model processes) are resumed by the engine long after
  the call that created them, so their wrapper times every resume and
  charges it to the generator's layer.
* Spans are aggregated in memory per function (calls, boundary spans,
  self time) -- a traced run crosses layers tens of millions of times --
  and the caller writes the aggregate once, when the run ends.
* Counters (TLPs carried, chains completed, bytes written, ...) are read
  from the collected objects when the registry entry that built them
  returns, by which point every engine it built has drained.

``repro.sim`` is wrapped at its public surface only (the engine API the
other layers call); ``repro.sim.trace`` -- the tracer an
:class:`~repro.obs.Observability` session installs -- is charged to
``obs``.  Packages outside the named layers are charged to ``other``.
The wrappers assume one thread runs the simulation, which holds for
every workload of this benchmark.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: The layers, named after the ``src/repro`` packages they cover.
LAYERS = ("sim", "pcie", "peach2", "drivers", "hw", "tca", "collectives",
          "obs", "bench", "other")

#: Packages never wrapped: the HTTP tier, which no workload uses.
SKIPPED_PACKAGES = ("repro.serve",)

#: Functions left unwrapped because they run as the body of a forked
#: child: a span opened there would be on the stack the child inherited.
UNWRAPPED = {"repro.bench.jobs._worker_main"}

#: Functions whose call count is a per-layer metric.
COUNTED = {
    "repro.sim.core.Engine.step": "sim.step_calls",
    "repro.sim.core.Process.__init__": "sim.process_spawns",
    "repro.drivers.peach2_driver.PEACH2Driver.ring_doorbell":
        "drivers.chains",
    # Every put a collective issues, PIO or chained DMA.
    "repro.collectives.ring.TCACollectives._put": "collectives.submits",
}

#: Functions whose total time (nested calls included) is a metric.
TIMED = {
    "repro.tca.subcluster.TCASubCluster.__init__": "tca.build_s",
    "repro.bench.cache.ResultCache.get": "bench.cache_get_s",
    "repro.bench.cache.ResultCache.put": "bench.cache_put_s",
    "repro.bench.jobs.Journal.create": "bench.journal_s",
    "repro.bench.jobs.Journal.record": "bench.journal_s",
    "repro.bench.jobs.Journal.close": "bench.journal_s",
}

#: Classes whose instances are collected for their public counters.
COLLECTED = {
    "repro.sim.core.Engine": "engine",
    "repro.pcie.link._Direction": "link",
    "repro.pcie.forwarding.EgressQueue": "egress",
    "repro.pcie.switch.PCIeSwitch": "switch",
    "repro.peach2.chip.PEACH2Chip": "chip",
    "repro.peach2.dma.DMAController": "dma",
    "repro.drivers.peach2_driver.PEACH2Driver": "driver",
    "repro.hw.memory.HostMemory": "memory",
    "repro.hw.gpu.GPU": "memory",
    "repro.collectives.channels.ChannelScheduler": "scheduler",
}


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to."""
    if module == "repro.sim.trace":
        return "obs"
    parts = module.split(".") + [""]
    # The canonical string object: wrappers compare layers by identity.
    return next((layer for layer in LAYERS if layer == parts[1]), "other")


def harvest(objects: Dict[str, list]) -> Dict[str, int]:
    """Read the public counters of the collected layer objects."""
    links = objects.get("link", ())
    egress = objects.get("egress", ())
    drivers = objects.get("driver", ())
    schedulers = objects.get("scheduler", ())
    return {
        "sim.events": sum(e.events_processed
                          for e in objects.get("engine", ())),
        "sim.engines": len(objects.get("engine", ())),
        "pcie.tlps_carried": sum(d.tlps_carried for d in links),
        "pcie.wire_tlps_carried": sum(d.wire_tlps_carried for d in links),
        "pcie.tlps_dropped": (sum(d.tlps_dropped for d in links)
                              + sum(q.tlps_dropped for q in egress)
                              + sum(s.tlps_dropped
                                    for s in objects.get("switch", ()))),
        "pcie.injections_held": sum(q.injections_held for q in egress),
        "peach2.tlps_routed": sum(c.tlps_routed
                                  for c in objects.get("chip", ())),
        "peach2.dma_chains": sum(d.chains_completed
                                 for d in objects.get("dma", ())),
        "peach2.dma_bytes": sum(d.bytes_transferred
                                for d in objects.get("dma", ())),
        "drivers.retries": sum(d.doorbell_retries + d.completion_timeouts
                               + d.lost_irqs_recovered for d in drivers),
        "hw.bytes_written": sum(m.bytes_written
                                for m in objects.get("memory", ())),
        "collectives.queued_high_water": max(
            (s.queued_high_water for s in schedulers), default=0),
    }


def add_counts(total: Dict[str, int], part: Dict[str, int]) -> None:
    """Fold one harvest into a running total (high-water marks by max)."""
    for key, value in part.items():
        if key.endswith("high_water"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


class LayerTracer:
    """Wraps the layers of ``repro`` and accumulates their host time.

    ``functions`` maps a qualified function name to its layer and a
    ``[calls, spans, self_s]`` cell; ``totals`` holds the
    :data:`TIMED` metrics.  One tracer serves one process; a forked
    child calls :meth:`reset` before it records anything of its own.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.functions: Dict[str, Tuple[str, list]] = {}
        self.totals: Dict[str, list] = defaultdict(lambda: [0.0])
        # Bottom frame: [layer, time covered by child spans].
        self.stack: List[list] = [["", 0.0]]
        self.objects: Dict[str, list] = defaultdict(list)
        self.counts: Dict[str, int] = {}
        self.entry_counts: Dict[str, Dict[str, int]] = {}
        self.window_start = time.perf_counter()
        self._patched: List[Tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer module; call before any engine is built."""
        import repro

        for info in pkgutil.iter_modules(repro.__path__, "repro."):
            if info.name.startswith(SKIPPED_PACKAGES):
                continue
            package = importlib.import_module(info.name)
            for sub in pkgutil.iter_modules(getattr(package, "__path__", []),
                                            info.name + "."):
                if not sub.name.endswith("__main__"):
                    importlib.import_module(sub.name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("repro.")
                   and not name.startswith(SKIPPED_PACKAGES)]
        wrapped: Dict[int, Callable] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            public_only = layer == "sim"
            for name, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and (not public_only or not name.startswith("_"))):
                    self._patch(module, name, value, layer, wrapped)
                elif (isinstance(value, type)
                      and value.__module__ == module.__name__
                      and not issubclass(value, enum.Enum)):
                    self._patch_class(value, layer, public_only, wrapped)
        # Rebind names other modules imported with ``from x import f``.
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and wrapper is not value:
                    self._set(module, name, wrapper)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` patched."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _set(self, owner, name, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_class(self, cls, layer, public_only, wrapped) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("__") and name != "__init__":
                continue
            if public_only and name.startswith("_") and name != "__init__":
                continue
            kind = None
            if isinstance(value, staticmethod):
                kind, value = staticmethod, value.__func__
            elif isinstance(value, classmethod):
                kind, value = classmethod, value.__func__
            if not isinstance(value, types.FunctionType):
                continue
            key = f"{cls.__module__}.{cls.__qualname__}.{name}"
            wrapper = self._wrap(value, key, layer)
            if name == "__init__" and key.rsplit(".", 1)[0] in COLLECTED:
                wrapper = self._collecting(
                    wrapper, COLLECTED[key.rsplit(".", 1)[0]])
            if key == "repro.sim.core.Process.__init__":
                wrapper = self._adopting(wrapper)
            wrapped[id(value)] = wrapper
            self._set(cls, name, kind(wrapper) if kind else wrapper)

    def _patch(self, module, name, fn, layer, wrapped) -> None:
        key = f"{module.__name__}.{name}"
        if key in UNWRAPPED:
            return
        wrapper = self._wrap(fn, key, layer)
        wrapped[id(fn)] = wrapper
        self._set(module, name, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str) -> Callable:
        cell = [0, 0, 0.0]  # calls, boundary spans, self seconds
        self.functions[key] = (layer, cell)
        if inspect.isgeneratorfunction(fn):
            wrapper = self._generator_wrapper(fn, layer, cell)
        else:
            wrapper = self._call_wrapper(fn, layer, cell)
        if key in TIMED:
            wrapper = self._timed(wrapper, self.totals[TIMED[key]])
        return wrapper

    def _call_wrapper(self, fn, layer, cell) -> Callable:
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                cell[1] += 1
                cell[2] += elapsed - frame[1]
                stack[-1][1] += elapsed
        return wrapper

    def _generator_wrapper(self, fn, layer, cell) -> Callable:
        resumes = self._resumes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            gen = fn(*args, **kwargs)
            timed = resumes(gen, layer, cell)
            timed.__name__, timed.__qualname__ = gen.__name__, gen.__qualname__
            return timed
        return wrapper

    def _resumes(self, gen, layer, cell):
        """Drive ``gen`` and charge each of its resumes to ``layer``."""
        stack, clock = self.stack, time.perf_counter
        send, throw = gen.send, gen.throw
        value = error = None
        while True:
            nested = stack[-1][0] is layer
            if not nested:
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
            try:
                if error is None:
                    yielded = send(value)
                else:
                    yielded = throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if not nested:
                    elapsed = clock() - start
                    stack.pop()
                    cell[1] += 1
                    cell[2] += elapsed - frame[1]
                    stack[-1][1] += elapsed
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded
                value, error = None, exc

    def _adopting(self, init) -> Callable:
        """``Process.__init__`` that times generators no wrapper covers.

        Generators defined inside a function (the flows of ``contention``
        and ``bisection``, the collective workers) cannot be wrapped at
        install time; the process that runs one charges it to the layer
        of the module that defined it.
        """
        resumes = self._resumes

        @functools.wraps(init)
        def adopting_init(proc, engine, generator, name=""):
            frame = getattr(generator, "gi_frame", None)
            if frame is not None:
                # Wrapped generators run in this module, not in repro's.
                module = frame.f_globals.get("__name__", "")
                if module.startswith("repro."):
                    key = f"{module}.{generator.__qualname__}"
                    layer, cell = self.functions.setdefault(
                        key, (layer_of(module), [0, 0, 0.0]))
                    cell[0] += 1
                    name = name or generator.__name__
                    generator = resumes(generator, layer, cell)
            init(proc, engine, generator, name)
        return adopting_init

    @staticmethod
    def _timed(wrapper, total) -> Callable:
        clock = time.perf_counter

        @functools.wraps(wrapper)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return wrapper(*args, **kwargs)
            finally:
                total[0] += clock() - start
        return timed

    def _collecting(self, init, kind: str) -> Callable:
        bucket = self.objects[kind]

        @functools.wraps(init)
        def collecting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)
        return collecting_init

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (a forked child's first act)."""
        self.pid = os.getpid()
        for _, cell in self.functions.values():
            cell[:] = [0, 0, 0.0]
        for total in self.totals.values():
            total[0] = 0.0
        del self.stack[1:]
        self.stack[0][1] = 0.0
        for bucket in self.objects.values():
            bucket.clear()
        self.counts = {}
        self.entry_counts = {}
        self.window_start = time.perf_counter()

    def run_entry(self, run_entry: Callable, name: str, mode: str,
                  seed: int, label: str):
        """Call ``run_entry`` as one traced point; harvest its counters.

        The engines a point builds have all drained when it returns, so
        the collected objects are read and released here.  Fork-worker
        engines are invisible to the collectors; their events arrive
        through :func:`repro.sim.executor.consume_stats`.
        """
        from repro.sim import executor

        executor.consume_stats()
        try:
            return run_entry(name, mode, seed)
        finally:
            counts = harvest(self.objects)
            events, engines = executor.consume_stats()
            counts["sim.events"] += events
            counts["sim.engines"] += engines
            for bucket in self.objects.values():
                bucket.clear()
            self.entry_counts[label] = counts
            add_counts(self.counts, counts)

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of benchmark work out of the open span's self time."""
        self.stack[-1][1] += seconds

    def layer_self_s(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, cell in self.functions.values():
            out[layer] += cell[2]
        return out

    def call_count(self, key: str) -> int:
        return self.functions[key][1][0] if key in self.functions else 0

    def snapshot(self) -> dict:
        """Everything recorded in this process, as plain JSON data."""
        return {
            "pid": self.pid,
            "window_s": time.perf_counter() - self.window_start,
            "layer_self_s": self.layer_self_s(),
            "totals": {k: v[0] for k, v in self.totals.items()},
            "calls": {metric: self.call_count(key)
                      for key, metric in COUNTED.items()},
            "counts": self.counts,
            "entry_counts": self.entry_counts,
            "functions": {key: [layer] + list(cell)
                          for key, (layer, cell) in self.functions.items()
                          if cell[0]},
        }


def traced_suite_runner(tracer: LayerTracer, run_entry: Callable,
                        spill: Path) -> Callable:
    """The traced pass's ``run_entry``, in this process or in a fork worker.

    Each of the suite's fork workers resets the state it inherited on its first point and
    rewrites its own snapshot to ``spill`` after every point, so the
    parent can merge what the workers recorded (:func:`worker_snapshots`).
    """
    parent = os.getpid()

    def runner(name: str, mode: str, seed: int):
        if os.getpid() != tracer.pid:
            tracer.reset()
        try:
            return tracer.run_entry(run_entry, name, mode, seed,
                                    f"{name}:{mode}")
        finally:
            if os.getpid() != parent:
                path = spill / f"worker-{os.getpid()}.json"
                tmp = path.with_suffix(".tmp")
                tmp.write_text(json.dumps(tracer.snapshot()))
                os.replace(tmp, path)
    return runner


def worker_snapshots(spill: Path) -> List[dict]:
    """The snapshots the suite's fork workers left in ``spill``."""
    return [json.loads(p.read_text())
            for p in sorted(spill.glob("worker-*.json"))]
