"""Span recording for the traced benchmark run.

The program is not edited: the tracer replaces the public functions that
each threshmem module calls through its own namespace with wrappers that
record a span around the call, and puts the originals back afterwards.
Spans nest by call order in the single benchmark thread, so a span's self
time is its duration minus the durations of its direct children.

A span named in PEAK_SPANS also records its peak memory: the highest
resident set size a sampling thread sees while the span is open, above the
resident set size at its start. The thread samples only while such a span
is open. tracemalloc is not used: it hooks every allocation, and on the
object-heavy JSON paths it made deserialize 25 times and serialize 11
times slower, which distorted every self time around them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

#: (module, attribute, span name). The module is the namespace the caller
#: looks the name up in: construct imports check_separation and
#: forward_batch by name, so those are wrapped in construct's namespace,
#: and the forward_batch that construct_memorizer calls is its self-check.
WRAPPED = (
    ("geometry", "generate_separated_dataset", "geometry.generate_separated_dataset"),
    ("geometry", "save_dataset_csv", "geometry.save_dataset_csv"),
    ("geometry", "load_dataset_csv", "geometry.load_dataset_csv"),
    ("geometry", "check_separation", "geometry.check_separation"),
    ("lowerbound", "build_cluster_dataset", "lowerbound.build_cluster_dataset"),
    ("lowerbound", "save_clustered_csv", "lowerbound.save_clustered_csv"),
    ("construct", "check_separation", "geometry.check_separation"),
    ("construct", "construct_memorizer", "construct.construct_memorizer"),
    ("construct", "build_first_layer", "construct.build_first_layer"),
    ("construct", "plan_compression", "construct.plan_compression"),
    ("construct", "build_xor_subnetwork", "construct.build_xor_subnetwork"),
    ("construct", "prefix_partition", "construct.prefix_partition"),
    ("construct", "build_selector_layer", "construct.build_selector_layer"),
    ("construct", "build_expansion_layer", "construct.build_expansion_layer"),
    ("construct", "build_memorization_layer", "construct.build_memorization_layer"),
    ("construct", "build_output_layer", "construct.build_output_layer"),
    ("construct", "forward_batch", "construct.self_check"),
    ("netcore", "serialize", "netcore.serialize"),
    ("netcore", "deserialize", "netcore.deserialize"),
    ("netcore", "forward_batch", "netcore.forward_batch"),
)

#: Spans whose traced peak memory is reported.
PEAK_SPANS = frozenset({
    "geometry.check_separation",
    "construct.construct_memorizer",
    "netcore.serialize",
    "netcore.deserialize",
    "netcore.forward_batch",
})

MB = 2.0 ** 20

#: Seconds between resident-set samples while a peak span is open.
SAMPLE_PERIOD = 0.002


class RssSampler:
    """Highest resident set size seen in each open window, from a thread."""

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._windows: list[list[int]] = []  # [rss at open, highest rss seen]
        self._active = threading.Event()
        self._stopping = False
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def rss(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _loop(self):
        while True:
            self._active.wait()
            if self._stopping:
                return
            rss = self.rss()
            for w in tuple(self._windows):
                w[1] = max(w[1], rss)
            time.sleep(SAMPLE_PERIOD)

    def open(self) -> list[int]:
        rss = self.rss()
        window = [rss, rss]
        self._windows.append(window)
        self._active.set()
        return window

    def close(self, window: list[int]) -> float:
        """Peak growth of the window in MB."""
        window[1] = max(window[1], self.rss())
        self._windows = [w for w in self._windows if w is not window]
        if not self._windows:
            self._active.clear()
        return (window[1] - window[0]) / MB

    def stop(self):
        self._stopping = True
        self._active.set()
        self._thread.join()
        os.close(self._fd)


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    peak_mb: Optional[float] = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._sampler: Optional[RssSampler] = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        s = Span(name, parent)
        self.spans.append(s)
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        window = self._sampler.open() if self._sampler and name in PEAK_SPANS else None
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if window is not None:
                s.peak_mb = self._sampler.close(window)
            self._stack.pop()

    def self_time(self, idx: int) -> float:
        s = self.spans[idx]
        return s.duration - sum(self.spans[c].duration for c in s.children)

    def subtree(self, idx: int) -> list[int]:
        out, todo = [], [idx]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.spans[i].children)
        return out

    def roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED and sample peak memory for the
        duration of the block."""
        originals = []
        self._sampler = RssSampler()
        try:
            for module_name, attr, span_name in WRAPPED:
                module = importlib.import_module(f"threshmem.{module_name}")
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
            self._sampler.stop()
            self._sampler = None

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper
