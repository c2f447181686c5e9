"""Spans recorded from outside the program.

The benchmark wraps rfclass's public functions where they are looked up
(module globals and two class attributes), so no file of the program
changes. Each call becomes a span with a name, start, end and parent; spans
stay in memory and are summarised after the run. Count functions read the
arguments or the result of a call; the time they take is recorded as a
``harness.count`` span so that it lands in the harness's own time, not in
the caller's layer.
"""

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter

import rfclass.booster
import rfclass.cli
import rfclass.dataset
import rfclass.explain
import rfclass.metrics
import rfclass.pipeline
import rfclass.synth
import rfclass.tuner


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield self.spans[index]
        finally:
            self._end(index)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if count is not None:
                with self.span("harness.count"):
                    self.spans[index].counts = count(args, result)
            return result
        return traced


def _n_records(args, result):
    return {"rows": len(result)}


def _text_bytes(args, result):
    return {"bytes": len(result.encode())}


def _dropped(args, result):
    return {"dropped": len(args[0]) - len(result)}


def _rows_in(args, result):
    return {"rows_in": len(args[0])}


def _rows_kept(args, result):
    return {"rows_kept": len(result)}


def _imputed(args, result):
    return {"cells": sum(rec.values.count(None) for rec in args[0].records)}


def _ensemble_size(args, result):
    trees = [tree for round_trees in result.trees for tree in round_trees]
    return {"rounds": len(result.trees), "trees": len(trees),
            "nodes": sum(tree.n_nodes() for tree in trees)}


def _scored(args, result):
    return {"rows": result.sample_count}


def _tree_rows(args, result):
    ensemble, X = args[0], args[1]
    n_trees = sum(len(round_trees) for round_trees in ensemble.trees)
    return {"rows": len(X), "tree_rows": len(X) * n_trees}


def _targets():
    """(owner, attribute, span name, count function) for every wrapped call.

    ``rfclass.pipeline`` names are wrapped where the pipeline imported them,
    so the pipeline's own calls are seen; the tuner, explain and booster
    entries cover the calls that go through those modules' globals.
    """
    p = rfclass.pipeline
    return [
        (rfclass.cli, "main", "cli.main", None),
        (rfclass.cli, "run_pipeline", "pipeline.run_pipeline", None),
        (p, "parse_database", "dataset.parse_database", _n_records),
        (p, "serialize_database", "dataset.serialize_database", _text_bytes),
        (p, "merge", "dataset.merge", None),
        (p, "deduplicate", "dataset.deduplicate", _dropped),
        (p, "canonical_schema", "dataset.canonical_schema", None),
        (p, "parse_tag", "dataset.parse_tag", None),
        (rfclass.dataset.Database, "feature_matrix", "dataset.feature_matrix", None),
        (p, "filter_ranges", "preprocess.filter_ranges", _rows_in),
        (p, "prune_missing", "preprocess.prune_missing", None),
        (p, "complete_cases", "preprocess.complete_cases", None),
        (p, "stratified_split", "preprocess.stratified_split", None),
        (p, "impute", "preprocess.impute", _imputed),
        (p, "fit_transforms", "preprocess.fit_transforms", None),
        (p, "apply_transforms", "preprocess.apply_transforms", _rows_kept),
        (p, "to_matrix", "preprocess.to_matrix", None),
        (p, "train", "booster.train", _ensemble_size),
        (p, "predict_class", "booster.predict_class", None),
        (p, "serialize_ensemble", "booster.serialize_ensemble", _text_bytes),
        (rfclass.booster, "load_ensemble", "booster.load_ensemble", None),
        (rfclass.metrics.EvaluationReport, "from_predictions",
         "metrics.from_predictions", _scored),
        (p, "summary_csv", "metrics.summary_csv", None),
        (p, "importance_from_database", "explain.importance_from_database", None),
        (rfclass.explain, "attribute", "explain.attribute", _tree_rows),
        (rfclass.explain, "aggregate_importance", "explain.aggregate_importance", None),
        (p, "generate", "synth.generate", None),
        (rfclass.synth, "generate", "synth.generate", None),
        (p, "preset", "synth.preset", None),
        (p, "pairwise_grid_search", "tuner.pairwise_grid_search", None),
        (rfclass.tuner, "pairwise_grid_search", "tuner.pairwise_grid_search", None),
        (rfclass.tuner, "cross_validate", "tuner.cross_validate", None),
        (rfclass.tuner, "train", "booster.train", _ensemble_size),
        (rfclass.tuner, "predict_proba", "booster.predict_proba", None),
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            raw = vars(owner)[attr]
            wrapped = tracer.wrap(name, getattr(owner, attr), count)
            if isinstance(raw, classmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            saved.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# per-layer metric -> span names whose durations it sums
TIME_METRICS = {
    "dataset.parse_s": ("dataset.parse_database",),
    "dataset.serialize_s": ("dataset.serialize_database",),
    "dataset.dedupe_s": ("dataset.merge", "dataset.deduplicate"),
    "dataset.feature_matrix_s": ("dataset.feature_matrix",),
    "preprocess.filter_prune_s": ("preprocess.filter_ranges", "preprocess.prune_missing",
                                  "preprocess.complete_cases"),
    "preprocess.split_s": ("preprocess.stratified_split",),
    "preprocess.impute_s": ("preprocess.impute",),
    "preprocess.transform_s": ("preprocess.fit_transforms", "preprocess.apply_transforms"),
    "preprocess.to_matrix_s": ("preprocess.to_matrix",),
    "booster.train_s": ("booster.train",),
    "booster.predict_s": ("booster.predict_class", "booster.predict_proba"),
    "booster.serialize_s": ("booster.serialize_ensemble",),
    "tuner.search_s": ("tuner.pairwise_grid_search",),
    "tuner.cv_s": ("tuner.cross_validate",),
    "metrics.evaluate_s": ("metrics.from_predictions", "metrics.summary_csv"),
    "explain.attribute_s": ("explain.attribute",),
    "explain.aggregate_s": ("explain.aggregate_importance",),
    "pipeline.run_s": ("pipeline.run_pipeline",),
    "cli.main_s": ("cli.main",),
}

# per-layer metric -> (span name, count key) summed over the spans
COUNT_METRICS = {
    "dataset.parse_rows": ("dataset.parse_database", "rows"),
    "dataset.serialize_bytes": ("dataset.serialize_database", "bytes"),
    "dataset.dedupe_dropped": ("dataset.deduplicate", "dropped"),
    "preprocess.imputed_cells": ("preprocess.impute", "cells"),
    "preprocess.rows_in": ("preprocess.filter_ranges", "rows_in"),
    "preprocess.rows_kept": ("preprocess.apply_transforms", "rows_kept"),
    "booster.rounds": ("booster.train", "rounds"),
    "booster.trees": ("booster.train", "trees"),
    "booster.nodes": ("booster.train", "nodes"),
    "booster.model_bytes": ("booster.serialize_ensemble", "bytes"),
    "metrics.rows_scored": ("metrics.from_predictions", "rows"),
    "explain.rows": ("explain.attribute", "rows"),
    "explain.tree_rows": ("explain.attribute", "tree_rows"),
}

# set-up is the only caller of these, so they are summarised over set-up roots
SETUP_TIME_METRICS = {
    "synth.generate_s": ("synth.generate",),
    "booster.load_s": ("booster.load_ensemble",),
}

#: layers whose self time is reported; ``harness`` is the benchmark's own code
SELF_LAYERS = ("cli", "pipeline", "dataset", "preprocess", "booster", "tuner",
               "metrics", "explain", "harness")


def _subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of the root and its descendants (spans are in start order)."""
    members = {root}
    out = [root]
    for i in range(root + 1, len(spans)):
        if spans[i].parent in members:
            members.add(i)
            out.append(i)
    return out


def _self_times(spans: list[Span], members: list[int]) -> dict[int, float]:
    """Duration minus the part of the span its children cover."""
    children: dict[int, list[int]] = {i: [] for i in members}
    for i in members[1:]:
        children[spans[i].parent].append(i)
    out = {}
    for i in members:
        s = spans[i]
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach, s.start)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[i] = s.duration - covered
    return out


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def root_metrics(spans: list[Span], root: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    members = _subtree(spans, root)
    by_name: dict[str, list[int]] = {}
    for i in members:
        by_name.setdefault(spans[i].name, []).append(i)

    def total(names):
        return sum(spans[i].duration for n in names for i in by_name.get(n, ()))

    def count(name, key):
        return sum(spans[i].counts[key] for i in by_name.get(name, ()))

    out = {metric: total(names) for metric, names in TIME_METRICS.items()}
    out.update({metric: count(*spec) for metric, spec in COUNT_METRICS.items()})
    out["dataset.feature_matrix_calls"] = len(by_name.get("dataset.feature_matrix", ()))
    trains = by_name.get("booster.train", ())
    out["booster.train_calls"] = len(trains)
    out["booster.s_per_round"] = (out["booster.train_s"] / out["booster.rounds"]
                                  if out["booster.rounds"] else 0.0)
    out["explain.us_per_tree_row"] = (1e6 * out["explain.attribute_s"] / out["explain.tree_rows"]
                                      if out["explain.tree_rows"] else 0.0)
    out["tuner.evaluations"] = len(by_name.get("tuner.cross_validate", ()))
    tuned = [i for i in trains if _has_ancestor(spans, i, "tuner.cross_validate")]
    out["tuner.fits"] = len(tuned)
    out["tuner.fit_rounds"] = sum(spans[i].counts["rounds"] for i in tuned)

    self_times = _self_times(spans, members)
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for i, value in self_times.items():
        out[f"{spans[i].layer}.self_s"] += value
    wall = spans[root].duration
    out["trace.wall_s"] = wall
    out["trace.unaccounted_s"] = abs(wall - sum(self_times.values()))
    return out


def setup_metrics(spans: list[Span], root: int) -> dict[str, float]:
    members = _subtree(spans, root)
    return {
        metric: sum(spans[i].duration for i in members if spans[i].name in names)
        for metric, names in SETUP_TIME_METRICS.items()
    }


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
