"""In-memory span tracer patched around robandit's public layer entry points.

Spans are recorded from the benchmark's side: each entry point is replaced,
in every robandit module that binds it, by a wrapper that times the call and
records a ``stats.Span`` with its parent. The two per-pull calls
(``RunningMedian.push`` and ``RunningMedian.median``) run tens of thousands of
times per replication, so they are counted and timed in aggregate instead,
and their time is charged to the enclosing span's ``leaf_ns``.

Recording state is per thread, so the runner's thread pool neither loses
counts nor mixes parents. ``uninstall`` restores every patched attribute.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from typing import Any, Callable

import numpy as np

from stats import Span

# draw_batch calls replayed per thread and repeat to measure how many
# contamination values are actually used; bounded so the replay stays a small
# overhead.
Z_REPLAY_MAX_CALLS = 2000
Z_REPLAY_MAX_VALUES = 200_000


def _n_first_arg(args, kwargs, result) -> tuple[int, int]:
    return int(args[1] if len(args) > 1 else kwargs["n"]), 0


def _n_race(args, kwargs, result) -> tuple[int, int]:
    return int(result.total_pulls), int(result.rounds)


def _n_size(args, kwargs, result) -> tuple[int, int]:
    return int(np.size(args[0])), 0


def _n_none(args, kwargs, result) -> tuple[int, int]:
    return 0, 0


# function name -> (module defining it, span name, work extractor)
FUNCTION_SPANS: dict[str, tuple[str, str, Callable]] = {
    "run_contaminated_successive_elimination": ("robandit.bandit", "bandit.race", _n_race),
    "empirical_median": ("robandit.estimators", "estimators.empirical_median", _n_size),
    "estimate_mad_ci": ("robandit.estimators", "estimators.ci", _n_size),
    "robust_moments": ("robandit.distributions", "distributions.robust_moments", _n_none),
    "oblivious_lifting": ("robandit.lower_bounds", "lower_bounds.lifting", _n_none),
    "lower_bound_samples": ("robandit.lower_bounds", "lower_bounds.lower_bound", _n_none),
    "kl_quadratic_constant": (
        "robandit.lower_bounds",
        "lower_bounds.kl_quadratic_constant",
        _n_none,
    ),
    "parse_config": ("robandit.harness.config", "harness.parse_config", _n_none),
    "write_csv": ("robandit.harness.runner", "harness.write_csv", _n_none),
}
DRAW_BATCH_SPAN = "contamination.draw_batch"
Z_REPLAY_SPAN = "tracer.z_replay"
SAMPLE_SPAN_PREFIX = "distributions.sample."
PUSH_LEAF = "bandit.median.push"
READ_LEAF = "bandit.median.read"


class _ThreadState:
    __slots__ = ("stack", "spans", "leaf", "muted", "z")

    def __init__(self):
        self.stack: list[list[int]] = []  # open spans as [id, leaf_ns]
        self.spans: list[Span] = []
        self.leaf: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.muted = False
        # replay tallies: calls, values drawn, values flagged, mismatches
        self.z = [0, 0, 0, 0]

    def clear(self):
        self.spans.clear()
        self.leaf.clear()
        self.z = [0, 0, 0, 0]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            self._states.append(st)
        return st

    def _wrap_span(self, name: str, fn: Callable, work: Callable) -> Callable:
        perf = time.perf_counter_ns
        ids = self._ids
        state = self._state

        def wrapped(*args, **kwargs):
            st = state()
            if st.muted:
                return fn(*args, **kwargs)
            stack = st.stack
            parent = stack[-1][0] if stack else None
            frame = [next(ids), 0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
            n, extra = work(args, kwargs, result)
            st.spans.append(Span(frame[0], parent, name, start, end, frame[1], n, extra))
            return result

        return wrapped

    def _wrap_leaf(self, name: str, fn: Callable) -> Callable:
        perf = time.perf_counter_ns
        state = self._state

        def wrapped(*args):
            t0 = perf()
            result = fn(*args)
            dt = perf() - t0
            st = state()
            if not st.muted:
                agg = st.leaf.get(name)
                if agg is None:
                    agg = st.leaf[name] = [0, 0]
                agg[0] += 1
                agg[1] += dt
                if st.stack:
                    st.stack[-1][1] += dt
            return result

        return wrapped

    def _wrap_draw_batch(self, fn: Callable) -> Callable:
        """draw_batch span plus, for the first calls of a repeat, a replay of the
        same draw on a twin generator in debug mode, which exposes the
        contamination flags. The replay is muted and recorded as its own span,
        so it never counts as contamination work."""
        timed = self._wrap_span(DRAW_BATCH_SPAN, fn, _n_first_arg)
        perf = time.perf_counter_ns
        ids = self._ids
        state = self._state

        def wrapped(arm, n, rng, debug=False):
            st = state()
            z = st.z
            if debug or st.muted or z[0] >= Z_REPLAY_MAX_CALLS or z[1] >= Z_REPLAY_MAX_VALUES:
                return timed(arm, n, rng, debug)
            before = rng.bit_generator.state
            x = timed(arm, n, rng)
            start = perf()
            st.muted = True
            try:
                twin = np.random.Generator(type(rng.bit_generator)())
                twin.bit_generator.state = before
                batch = fn(arm, n, twin, debug=True)
            finally:
                st.muted = False
            end = perf()
            parent = st.stack[-1][0] if st.stack else None
            st.spans.append(Span(next(ids), parent, Z_REPLAY_SPAN, start, end, 0, n, 0))
            z[0] += 1
            z[1] += n
            z[2] += int(batch.d.sum())
            z[3] += 0 if np.array_equal(batch.x, x, equal_nan=True) else 1
            return x

        return wrapped

    # -- patching ----------------------------------------------------------

    def _rebind(self, original: Any, replacement: Any, name: str) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "robandit" or mod is None:
                continue
            if getattr(mod, name, None) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, replacement)

    def _patch_attr(self, owner: Any, name: str, replacement: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Patch every layer entry point; robandit must already be imported."""
        import robandit.bandit as bandit
        import robandit.contamination as contamination
        import robandit.distributions as distributions

        for fname, (home, span_name, work) in FUNCTION_SPANS.items():
            original = getattr(sys.modules[home], fname)
            self._rebind(original, self._wrap_span(span_name, original, work), fname)
        self._rebind(contamination.draw_batch, self._wrap_draw_batch(contamination.draw_batch), "draw_batch")

        for cls in vars(distributions).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, distributions.Distribution)
                and "sample" in cls.__dict__
                and cls is not distributions.Distribution
            ):
                kind = cls.__name__.lstrip("_").lower()
                span = self._wrap_span(SAMPLE_SPAN_PREFIX + kind, cls.__dict__["sample"], _n_first_arg)
                self._patch_attr(cls, "sample", span)

        rm = bandit.RunningMedian
        self._patch_attr(rm, "push", self._wrap_leaf(PUSH_LEAF, rm.__dict__["push"]))
        self._patch_attr(rm, "median", property(self._wrap_leaf(READ_LEAF, rm.__dict__["median"].fget)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        for st in self._states:
            st.clear()

    def collect(self) -> tuple[list[Span], dict[str, list[int]], list[int]]:
        """All closed spans, leaf tallies and replay tallies since the last reset."""
        spans: list[Span] = []
        leaf: dict[str, list[int]] = {}
        z = [0, 0, 0, 0]
        for st in self._states:
            spans.extend(st.spans)
            for name, (calls, ns) in st.leaf.items():
                agg = leaf.setdefault(name, [0, 0])
                agg[0] += calls
                agg[1] += ns
            z = [a + b for a, b in zip(z, st.z)]
        return spans, leaf, z
