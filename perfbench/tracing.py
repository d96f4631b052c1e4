"""Span tracing from outside the program: wrappers around layer entry points.

:func:`install` replaces each layer's public entry point (and the few
private hand-offs where a layer does its real work, such as
``TofinoSwitch._process``) with a wrapper that records a span — name,
start, end and parent — while the tracer is on. Functions are patched
at every ``repro`` module binding that holds them, so a caller that
imported the name (``repro.core.orchestrator.reconstruct_trace``) sees
the wrapper as well as one that goes through the defining module.

Spans live in per-thread arrays (the service workload's dispatcher
runs in its own thread) and are written out by :meth:`Tracer.dump`.
A span's self time is its duration minus the durations of its direct
children; children never overlap because each thread's spans nest.
Spans stop at the process boundary: work inside a spawned job process
is not traced.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns


class _Buffer:
    """One thread's spans, as parallel arrays (index = span id)."""

    __slots__ = ("name", "parent", "start", "end", "stack")

    def __init__(self) -> None:
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = []


class Tracer:
    """Records spans and boundary counts while :attr:`on` is true."""

    def __init__(self) -> None:
        self.on = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self.counts: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def wrap(self, name: str, fn: Callable,
             pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name`` around each call.

        ``pre(args)`` runs before the call and its value is handed to
        ``post(args, result, value)`` after it; both update counts.
        """
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            idx = len(buf.start)
            stack = buf.stack
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0)
            token = pre(args) if pre is not None else None
            stack.append(idx)
            buf.start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = _clock()
                stack.pop()
            if post is not None:
                post(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- patching -------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def patch_function(self, fn: Callable, name: str, **hooks) -> None:
        """Replace ``fn`` at every loaded ``repro`` module binding."""
        wrapper = self.wrap(name, fn, **hooks)
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------
    def span_totals(self) -> Tuple[Counter, Dict[str, float], Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        calls: Counter = Counter()
        incl: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for buf in self._buffers:
            n = len(buf.start)
            child = [0] * n
            durations = [e - s for s, e in zip(buf.start, buf.end)]
            for i, parent in enumerate(buf.parent):
                if parent >= 0:
                    child[parent] += durations[i]
            for i in range(n):
                name = self.names[buf.name[i]]
                calls[name] += 1
                incl[name] += durations[i] / 1e9
                self_s[name] += (durations[i] - child[i]) / 1e9
        return calls, incl, self_s

    def span_count(self) -> int:
        return sum(len(buf.start) for buf in self._buffers)

    def dump(self, path: str) -> None:
        """Write every span as ``(name, start_ns, end_ns, parent)`` arrays."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        doc = {"names": self.names,
               "threads": [{"name": buf.name, "start": buf.start,
                            "end": buf.end, "parent": buf.parent}
                           for buf in self._buffers]}
        with open(path, "wb") as handle:
            pickle.dump(doc, handle, protocol=pickle.HIGHEST_PROTOCOL)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; see NOTES.md for the span list."""
    from repro.core import orchestrator, report, testbed, trace
    from repro.core.analyzers.registry import iter_analyzers
    from repro.dumper.pool import DumperPool
    from repro.dumper.server import DumperServer
    from repro.net import checksum
    from repro.net.link import Port
    from repro.net.packet import Packet
    from repro.rdma.nic import RdmaNic
    from repro.rdma.qp import QueuePair
    from repro.service import client, dispatcher
    from repro.sim.engine import Simulator
    from repro.store import index, serialize
    from repro.switch.controlplane import SwitchController
    from repro.switch.pipeline import TofinoSwitch

    counts = tracer.counts

    def add(key: str, value=1) -> None:
        counts[key] += value

    tracer.patch_method(
        Simulator, "run", "sim.run",
        pre=lambda a: a[0].events_processed,
        post=lambda a, r, before: add("sim.events", a[0].events_processed - before))
    tracer.patch_method(Port, "send", "net.send",
                        post=lambda a, r, t: r is False and add("net.send.drops"))
    tracer.patch_method(Packet, "pack_headers", "net.pack")
    tracer.patch_method(Packet, "icrc", "net.icrc")
    tracer.patch_function(checksum.icrc_many, "net.icrc_many")
    tracer.patch_method(TofinoSwitch, "handle_packet", "switch.handle")
    tracer.patch_method(TofinoSwitch, "_process", "switch.process")
    tracer.patch_method(
        SwitchController, "dump_counters", "switch.dump",
        post=lambda a, r, t: add("switch.mirrored", int(r.get("mirrored_packets", 0))))
    tracer.patch_method(RdmaNic, "handle_packet", "rdma.rx")
    tracer.patch_method(QueuePair, "dequeue_tx", "rdma.tx")
    tracer.patch_method(QueuePair, "post_send", "rdma.post")
    tracer.patch_method(DumperServer, "handle_packet", "dumper.rx")
    tracer.patch_method(
        DumperPool, "terminate_all", "dumper.terminate",
        post=lambda a, r, t: add("dumper.discards", a[0].total_discards))

    def run_done(args, result, token) -> None:
        add("core.runs")
        add("core.attempts", len(result.attempts))
        add("sim.duration_ns", int(result.duration_ns))
        for host in (result.requester_counters, result.responder_counters):
            add("rdma.retransmitted", int(host.canonical.get("retransmitted_packets", 0)))

    tracer.patch_method(orchestrator.Orchestrator, "run", "core.run", post=run_done)
    tracer.patch_method(orchestrator.Orchestrator, "setup", "core.setup")
    tracer.patch_function(testbed.build_testbed, "core.build")
    tracer.patch_function(trace.reconstruct_trace, "core.trace")
    tracer.patch_function(trace.check_integrity, "core.integrity")
    tracer.patch_function(report.render_report, "core.report")
    tracer.patch_function(serialize.encode_result, "store.encode")
    tracer.patch_function(serialize.decode_result, "store.decode")
    for analyzer in iter_analyzers():
        tracer.patch_method(type(analyzer), "analyze", f"core.analyze.{analyzer.name}")

    def put_done(args, result, token) -> None:
        store, fp = args[0], args[1]
        add("store.bytes_written", os.path.getsize(store._object_path(fp))
            + os.path.getsize(store._index_path()))

    tracer.patch_method(index.CampaignStore, "get", "store.get",
                        post=lambda a, r, t: r is not None and add("store.hits"))
    tracer.patch_method(index.CampaignStore, "put", "store.put", post=put_done)
    tracer.patch_method(client.Client, "submit", "service.submit")
    tracer.patch_method(dispatcher.ProcessJobExecutor, "execute", "service.executor")


def icrc_cache_stats() -> Tuple[int, int]:
    """Process-wide iCRC cache (hits, misses): per-packet plus batched."""
    from repro.net.checksum import icrc_batch_stats, icrc_for

    info = icrc_for.cache_info()
    batch_hits, batch_misses = icrc_batch_stats()
    return info.hits + batch_hits, info.misses + batch_misses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers from the recorded spans and boundary counts.

    ``*.self_s`` is self time; every other ``*_s`` is the inclusive
    time of the named spans. All sums run over the traced op loop.
    """
    from repro.core.analyzers.registry import analyzer_names

    calls, incl, self_s = tracer.span_totals()
    c = tracer.counts
    out: Dict[str, float] = {
        "sim.events": c["sim.events"],
        "sim.run_self_s": self_s["sim.run"],
        "sim.duration_ns": c["sim.duration_ns"],
        "net.send.calls": calls["net.send"],
        "net.send.self_s": self_s["net.send"],
        "net.send.drops": c["net.send.drops"],
        "net.codec.calls": calls["net.pack"] + calls["net.icrc"] + calls["net.icrc_many"],
        "net.codec.self_s": (self_s["net.pack"] + self_s["net.icrc"]
                             + self_s["net.icrc_many"]),
        "net.icrc_hit_ratio": _ratio(c["net.icrc_hits"], c["net.icrc_lookups"]),
        "switch.pkts": calls["switch.handle"],
        "switch.self_s": self_s["switch.handle"] + self_s["switch.process"],
        "switch.mirrored": c["switch.mirrored"],
        "rdma.rx.pkts": calls["rdma.rx"],
        "rdma.rx.self_s": self_s["rdma.rx"],
        "rdma.tx.pkts": calls["rdma.tx"],
        "rdma.tx.self_s": self_s["rdma.tx"] + self_s["rdma.post"],
        "rdma.retx_ratio": _ratio(c["rdma.retransmitted"], calls["rdma.tx"]),
        "dumper.pkts": calls["dumper.rx"],
        "dumper.self_s": self_s["dumper.rx"],
        "dumper.discards": c["dumper.discards"],
        "dumper.terminate_s": incl["dumper.terminate"],
        "core.runs": c["core.runs"],
        "core.build_s": incl["core.build"] + incl["core.setup"],
        "core.attempts_per_run": _ratio(c["core.attempts"], c["core.runs"]),
        "core.trace_s": incl["core.trace"],
        "core.integrity_s": incl["core.integrity"],
        "core.report_s": incl["core.report"],
        "store.encode_s": incl["store.encode"],
        "store.decode_s": incl["store.decode"],
        "store.get_s": incl["store.get"],
        "store.put_s": incl["store.put"],
        "store.bytes_written": c["store.bytes_written"],
        "store.hit_ratio": _ratio(c["store.hits"], calls["store.get"]),
        "service.submit_s": incl["service.submit"],
        "service.executor_s": incl["service.executor"],
    }
    for name in analyzer_names():
        out[f"core.analyze_s.{name}"] = incl[f"core.analyze.{name}"]
    return out
