"""Span tracer that instruments mldistill from outside its source.

`install` rebinds the public names each mldistill module imports (for
example `mldistill.distill.forward_batch`) to wrappers that record a span:
name, start, end and the span that was open when the call began.  Spans
are kept in memory and written out once, by `Tracer.dump`, when the
command ends.  Nothing under `src/` is edited: a module that later drops
a name simply leaves that span unrecorded, and the dump lists it as
missing.

The current span lives in a context variable, and
`ThreadPoolExecutor.submit` is wrapped to carry the submitting context into
the worker, so a span opened in a pool thread names the span that submitted
it as its parent.
"""

import contextvars
import importlib
import itertools
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (module, attribute, span name).  A module-level function is rebound in
# the module whose code calls it; a method is rebound on its class.
SPAN_TARGETS = (
    ("mldistill.cli", "read_predictions", "predictions.read_predictions"),
    ("mldistill.cli", "full_report", "metrics.full_report"),
    ("mldistill.cli", "save_run_outputs", "experiment.save_run_outputs"),
    ("mldistill.cli", "write_text_atomic", "experiment.write_text_atomic"),
    ("mldistill.experiment", "stratified_kfold", "splits.stratified_kfold"),
    ("mldistill.experiment", "dispatch_mode", "experiment.dispatch_mode"),
    ("mldistill.experiment", "full_report", "metrics.full_report"),
    ("mldistill.experiment", "write_predictions", "predictions.write_predictions"),
    ("mldistill.distill", "tokenize", "corpus.tokenize"),
    ("mldistill.distill", "init_model", "model.init_model"),
    ("mldistill.distill", "backward_batch", "model.backward_batch"),
    ("mldistill.distill", "sgd_step", "model.sgd_step"),
    ("mldistill.distill", "train_teacher", "distill.train_teacher"),
    ("mldistill.distill", "train_student", "distill.train_student"),
    ("mldistill.corpus", "HashingTfidfVectorizer.fit", "corpus.vectorizer_fit"),
    ("mldistill.corpus", "HashingTfidfVectorizer.transform", "corpus.vectorizer_transform"),
    ("mldistill.predictions", "PredictionSet.canonical_rows", "predictions.canonical_rows"),
)
# Called up to a million times per command: counted, not spanned.
COUNT_TARGETS = (("mldistill.predictions", "PredictionSet.add", "predictions.add"),)
FORWARD_TARGET = ("mldistill.distill", "forward_batch")
SWARM_TARGET = ("mldistill.experiment", "pso_optimize")

SAMPLE_INTERVAL_S = 0.002


def _resolve(module_name, path):
    """(owner, attribute) for a dotted attribute path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        # (span id, name, start, end, parent id, extra); id 0 is "no parent".
        self.spans = []
        self.counters = {}
        self.missing = []
        self.swarm = None
        self.threads_peak = 0
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sampler = None

    def span(self, name, extra, fn, /, *args, **kwargs):
        """Call fn inside a span and return its result."""
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((sid, name, start, end, parent, extra))

    def _spanned(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, None, fn, *args, **kwargs)

        return traced

    def _counted(self, name, fn):
        self.counters[name] = 0

        def counted(*args, **kwargs):
            with self._lock:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _forward(self, fn):
        # Split forward passes by the role of the model that runs them.
        def traced(model, *args, **kwargs):
            return self.span(f"model.forward_batch.{model.spec.role}", None, fn, model, *args, **kwargs)

        return traced

    def _swarm(self, fn):
        # Wrap the objective handed to the swarm, so each call is a span
        # tagged with its iteration and whether its score was finite.
        def traced(space, objective, cfg, *args, **kwargs):
            self.swarm = {"particles": cfg.n, "workers": cfg.parallelism}
            calls = itertools.count()

            def traced_objective(position):
                # Iteration i+1 is submitted only after all n calls of
                # iteration i returned, so the call index gives the iteration.
                iteration = next(calls) // cfg.n + 1
                extra = {"iteration": iteration}
                score = self.span("hypertune.objective", extra, objective, position)
                extra["finite"] = math.isfinite(score)
                return score

            return self.span("hypertune.pso_optimize", None, fn, space, traced_objective, cfg, *args, **kwargs)

        return traced

    def _rebind(self, module_name, path, make_wrapper):
        found = _resolve(module_name, path)
        if found is None:
            self.missing.append(f"{module_name}.{path}")
            return
        owner, attr = found
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))

    def install(self):
        for module_name, path, name in SPAN_TARGETS:
            self._rebind(module_name, path, lambda fn, name=name: self._spanned(name, fn))
        for module_name, path, name in COUNT_TARGETS:
            self._rebind(module_name, path, lambda fn, name=name: self._counted(name, fn))
        self._rebind(*FORWARD_TARGET, self._forward)
        self._rebind(*SWARM_TARGET, self._swarm)

        submit = ThreadPoolExecutor.submit

        def submit_in_context(pool, fn, /, *args, **kwargs):
            return submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)

        ThreadPoolExecutor.submit = submit_in_context
        self._sampler = threading.Thread(target=self._sample_threads, name="perfbench-sampler", daemon=True)
        self._sampler.start()
        return self

    def _sample_threads(self):
        # Live threads besides the main thread and this sampler.
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.threads_peak = max(self.threads_peak, threading.active_count() - 2)

    def dump(self, path):
        self._stop.set()
        self._sampler.join()
        payload = {
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": self.counters,
            "missing": self.missing,
            "swarm": self.swarm,
            "threads_peak": self.threads_peak,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
