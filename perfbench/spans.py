"""Outside-in tracing: spans recorded around the program's layer boundaries.

Every boundary the benchmark traces is reached through a module or class
attribute at call time (`ops.spmm_norm`, `nn.gcn_layer_forward`,
`engine.epoch_forward`, `WorkerState.forward`, ...), so wrapping that
attribute from the benchmark's own files sees every call without a change to
the program. Wrappers only take timestamps and look at argument and result
shapes; they never touch values, so a traced run trains exactly as an
untraced one.

Spans stay in memory; the harness writes them out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    thread: int
    device: Optional[int]  # None: the master
    epoch: Optional[int]  # None: set-up, before the first epoch
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        doc = {k: getattr(self, k) for k in ("id", "name", "start", "end", "parent", "thread", "device", "epoch")}
        doc.update(self.attrs)
        return doc


class Patches:
    """Replaced attributes, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name: str, make: Callable) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer:
    """Records spans from any thread.

    A span's parent is the innermost open span of its own thread. A span
    opened on a thread with nothing open (a pool worker) takes the innermost
    open span of the thread that created the tracer, which is the master
    blocked in the call that dispatched the work. A span without a device
    inherits its parent's.
    """

    def __init__(self):
        self.spans: list = []
        self.epoch: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, device: Optional[int] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        if device is None and parent is not None:
            device = parent.device
        span = Span(
            id=next(self._ids),
            name=name,
            start=0.0,
            parent=parent.id if parent is not None else None,
            thread=threading.get_ident(),
            device=device,
            epoch=self.epoch,
        )
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def take(self) -> list:
        """The spans recorded so far; the tracer starts an empty list."""
        spans, self.spans = self.spans, []
        return spans

    def wrapper(self, name, device: Optional[Callable] = None, attrs: Optional[Callable] = None):
        """A factory for Patches.wrap.

        `name` is a string or a function of (args, kwargs); `device` maps
        args to a device index; `attrs(args, kwargs, result)` returns counts
        to store on the span, computed after the span has closed.
        """
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                span = tracer.open(label, device(args) if device else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, result)
                return result

            return traced

        return make


def _nbytes(obj) -> int:
    return int(obj.nbytes) if hasattr(obj, "nbytes") else 0


def _cache_bytes(worker) -> int:
    """Bytes of the per-layer forward caches a worker holds for backward."""
    total = 0
    for layer_cache in worker.cache or ():
        total += sum(_nbytes(v) for v in vars(layer_cache).values())
    return total


def _epoch_forward_name(args, kwargs) -> str:
    training = kwargs["training"] if "training" in kwargs else args[1]
    return "engine.train_forward" if training else "engine.eval_forward"


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced boundary of the program."""
    from slicegcn import engine, graph, nn, ops, slicing

    w = tracer.wrapper
    patches.wrap(graph, "load_dataset", w("graph.load_dataset"))
    patches.wrap(graph, "build_csr", w("graph.build_csr"))
    patches.wrap(
        ops, "spmm_norm",
        w("ops.spmm_norm", attrs=lambda a, k, r: {"flop": 2 * a[0].num_edges * a[2].shape[1]}),
    )
    patches.wrap(ops, "dropout", w("ops.dropout"))
    for fn in ("gcn_layer_forward", "gcn_layer_backward", "mlp_forward", "mlp_backward", "adam_step"):
        patches.wrap(nn, fn, w(f"nn.{fn}"))
    for fn in ("feature_fusion_forward", "feature_fusion_backward", "slice_feature"):
        patches.wrap(slicing, fn, w(f"slicing.{fn}"))
    patches.wrap(engine, "build_run", w("engine.build_run"))
    patches.wrap(engine, "epoch_forward", w(_epoch_forward_name))
    patches.wrap(engine, "epoch_backward", w("engine.epoch_backward"))
    patches.wrap(engine, "apply_updates", w("engine.apply_updates"))
    patches.wrap(engine, "evaluate", w("engine.evaluate"))

    def device(args):
        return args[0].device_index  # args[0] is the WorkerState

    patches.wrap(
        engine.WorkerState, "forward",
        w("worker.forward", device, lambda a, k, r: {
            "in_bytes": _nbytes(a[3]), "out_bytes": _nbytes(r), "cache_bytes": _cache_bytes(a[0]),
        }),
    )
    patches.wrap(
        engine.WorkerState, "backward",
        w("worker.backward", device, lambda a, k, r: {"in_bytes": _nbytes(a[3]), "out_bytes": _nbytes(r)}),
    )
    patches.wrap(engine.WorkerState, "step", w("worker.step", device))


# ---------------------------------------------------------------------------
# Span arithmetic


def covered(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


def worker_concurrency(spans: list) -> float:
    """Worker busy time over the wall time of the phases it ran in.

    A phase is the set of same-named worker spans dispatched by one master
    call (same parent); its wall time runs from the first start to the last
    end. 1.0 means the workers ran one after another; p means fully
    overlapped.
    """
    phases: dict = {}
    for s in spans:
        if s.name.startswith("worker."):
            phases.setdefault((s.parent, s.name), []).append(s)
    busy = sum(s.duration for group in phases.values() for s in group)
    wall = sum(max(s.end for s in g) - min(s.start for s in g) for g in phases.values())
    return busy / wall if wall > 0 else 0.0


def worker_imbalance(spans: list) -> float:
    """Largest device busy time over the mean device busy time."""
    busy: dict = {}
    for s in spans:
        if s.name.startswith("worker."):
            busy[s.device] = busy.get(s.device, 0.0) + s.duration
    if not busy:
        return 0.0
    mean = sum(busy.values()) / len(busy)
    return max(busy.values()) / mean if mean > 0 else 0.0


def uncovered_share(spans: list, lo: float, hi: float) -> float:
    """Share of the window [lo, hi] that no span covers."""
    if hi <= lo:
        return 0.0
    return 1.0 - covered([(s.start, s.end) for s in spans], lo, hi) / (hi - lo)
