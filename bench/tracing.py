"""Span recorder for the traced benchmark run.

`Tracer.install` wraps the package's public functions named in LAYERS by
replacing every `qosrank.*` module attribute that is the original function
object, which also covers names bound through `from .x import y`. Each call
records a span: layer name, start, end, parent span and a request id. All
spans of one evaluated cell (operation, split, active user) or of one query
share the id. Spans stay in memory until `write`; self times are computed
from them. Counters are read from each call's arguments and result after
its span has closed, so their cost shows in trace_overhead_s and not in the
layer times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple


class Layer(NamedTuple):
    module: str
    function: str
    name: str
    active: str | None  # argument path to the active user, if the call has one


LAYERS = (
    Layer("similarity", "similarity_row", "similarity.row", "u"),
    Layer("similarity", "select_neighbors", "similarity.select", "row.active"),
    Layer("preference", "build_preference_table", "preference.table", "u"),
    Layer("ranker", "greedy_rank", "ranker.greedy", "table.active"),
    Layer("ranker", "correct_observed_order", "ranker.correct", "u"),
    Layer("ranker", "rank", "ranker.rank", "u"),
    Layer("metrics", "kendall_tau_score", "metrics.score", "predicted.active"),
    Layer("matrix", "split_train_test", "matrix.split", None),
    Layer("matrix", "load_matrix", "matrix.load", None),
    Layer("allocsim", "synth_matrix", "allocsim.build", None),
    Layer("experiment", "run_experiment", "experiment.run", None),
)

SETUP = "setup"
MB = 2**20


def _lookup(arguments: dict, path: str):
    head, *rest = path.split(".")
    value = arguments[head]
    for attr in rest:
        value = getattr(value, attr)
    return value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.request = SETUP
        self.split = 0
        self.count: dict[str, float] = defaultdict(float)
        self.problems: list[str] = []  # correctness problems not yet taken
        self.notes: list[str] = []
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._last_row = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            try:
                original = getattr(importlib.import_module(f"qosrank.{layer.module}"), layer.function)
            except (ImportError, AttributeError):
                self.missing.append(layer.name)
                continue
            wrapper = self._wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if name != "qosrank" and not name.startswith("qosrank."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def take_problems(self) -> list[str]:
        """Problems found since the last call."""
        problems, self.problems = self.problems, []
        return problems

    def begin(self, request: str) -> None:
        """Start a new operation; later spans belong to it."""
        self.request = request
        self.split = 0

    def _wrap(self, layer: Layer, fn):
        signature = inspect.signature(fn)
        probe = getattr(self, "_probe_" + layer.name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                arguments = signature.bind(*args, **kwargs).arguments
            except TypeError:
                arguments = {}
            if layer.name == "matrix.split":
                self.split += 1
            request = self.request
            if layer.active is not None and self.request != SETUP:
                try:
                    request = f"{self.request}.{self.split}.{int(_lookup(arguments, layer.active))}"
                except (KeyError, AttributeError, TypeError, ValueError):
                    pass
            span = [layer.name, 0.0, 0.0, self.stack[-1] if self.stack else -1, request]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if probe is not None:
                try:
                    probe(arguments, result)
                except Exception as exc:  # a probe must never break the run
                    note = f"{layer.name} probe skipped: {type(exc).__name__}: {exc}"
                    if note not in self.notes:
                        self.notes.append(note)
            return result

        return wrapper

    # -- counters read from arguments and results ---------------------------

    def _probe_similarity_row(self, args, row):
        users, services = args["matrix"].values.shape
        elems = (users - 1) * services * services
        self.count["pair_elems"] += elems
        self.count["tensor_mb"] = max(self.count["tensor_mb"], elems * 8 / MB)
        self._last_row = (row, args["matrix"])

    def _probe_similarity_select(self, args, nbrs):
        self.count["neighbors"] += len(nbrs.members)
        if self._last_row is None or self._last_row[0] is not args["row"]:
            return
        mask = self._last_row[1].observed_mask
        ids = nbrs.user_ids()
        self.count["overlap"] += int((mask[ids] & mask[nbrs.active]).sum())
        self._last_row = None

    def _probe_preference_table(self, args, table):
        n = len(table.candidates)
        codes = table.provenance_codes
        explicit = int((codes == 2).sum())
        implicit = int((codes == 1).sum())
        self.count["pairs"] += n * (n - 1)
        self.count["explicit"] += explicit
        self.count["implicit"] += implicit
        self.count["unknown"] += n * (n - 1) - explicit - implicit

    def _check_permutation(self, layer: str, order, expected) -> None:
        if sorted(order) != sorted(expected):
            self.problems.append(f"{self.request}: {layer} output is not a permutation of its candidates")

    def _probe_ranker_greedy(self, args, ranking):
        self.count["rounds"] += len(ranking.order)
        self._check_permutation("greedy_rank", ranking.order, args["table"].candidates)

    def _probe_ranker_correct(self, args, ranking):
        self._check_permutation("correct_observed_order", ranking.order, args["ranking"].order)

    def _probe_ranker_rank(self, args, ranking):
        self._check_permutation("rank", ranking.order, set(int(c) for c in args["candidates"]))

    def _probe_metrics_score(self, args, score):
        self.count["unscoreable"] += score is None

    def _probe_allocsim_build(self, args, result):
        self.count["unplaced"] += len(result[1].unplaced)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics. Times are mean seconds per call over every
        traced call, set-up included; `*_calls` are calls per operation."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        op_calls = defaultdict(int)
        for span, self_time in zip(self.spans, self.self_times()):
            name, start, end, _, request = span
            total[name] += end - start
            own[name] += self_time
            calls[name] += 1
            op_calls[name] += request != SETUP

        def mean(table, name):
            return table[name] / calls[name] if calls[name] else 0.0

        def share(part, whole):
            return self.count[part] / self.count[whole] if self.count[whole] else 0.0

        c = self.count
        return {
            "similarity.row_s": (mean(total, "similarity.row"), "s"),
            "similarity.row_calls": (op_calls["similarity.row"] / ops, "count"),
            "similarity.pair_elems": (c["pair_elems"] / max(calls["similarity.row"], 1), "count"),
            "similarity.tensor_mb": (c["tensor_mb"], "MB"),
            "similarity.select_s": (mean(total, "similarity.select"), "s"),
            "similarity.neighbors_mean": (c["neighbors"] / max(calls["similarity.select"], 1), "count"),
            "similarity.overlap_mean": (c["overlap"] / c["neighbors"] if c["neighbors"] else 0.0, "count"),
            "preference.table_s": (mean(total, "preference.table"), "s"),
            "preference.table_calls": (op_calls["preference.table"] / ops, "count"),
            "preference.explicit_share": (share("explicit", "pairs"), "fraction"),
            "preference.implicit_share": (share("implicit", "pairs"), "fraction"),
            "preference.unknown_share": (share("unknown", "pairs"), "fraction"),
            "ranker.greedy_s": (mean(total, "ranker.greedy"), "s"),
            "ranker.greedy_calls": (op_calls["ranker.greedy"] / ops, "count"),
            "ranker.greedy_rounds": (c["rounds"] / max(calls["ranker.greedy"], 1), "count"),
            "ranker.correct_s": (mean(total, "ranker.correct"), "s"),
            "ranker.rank_s": (mean(total, "ranker.rank"), "s"),
            "metrics.score_s": (mean(total, "metrics.score"), "s"),
            "metrics.score_calls": (op_calls["metrics.score"] / ops, "count"),
            "metrics.unscoreable_share": (c["unscoreable"] / max(calls["metrics.score"], 1), "fraction"),
            "matrix.split_s": (mean(total, "matrix.split"), "s"),
            "matrix.load_s": (mean(total, "matrix.load"), "s"),
            "allocsim.build_s": (mean(total, "allocsim.build"), "s"),
            "allocsim.unplaced_vms": (c["unplaced"] / max(calls["allocsim.build"], 1), "count"),
            "experiment.self_s": (mean(own, "experiment.run"), "s"),
        }

    def write(self, path: Path, meta: dict) -> None:
        spans = [
            {"name": name, "start": start, "end": end, "parent": parent, "id": request, "self": own}
            for (name, start, end, parent, request), own in zip(self.spans, self.self_times())
        ]
        doc = dict(meta, missing=self.missing, notes=self.notes, spans=spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
