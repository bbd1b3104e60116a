"""Spans around the package's functions at each layer boundary.

The tracer replaces a module or class attribute with a wrapper that
records (name, start, end, parent, value) and restores the original on
close. Nothing inside the package changes; a function that no longer
exists is reported as absent and left alone.
"""

from __future__ import annotations

import inspect
import json
from time import perf_counter

# (module path, attribute, span name); a dotted attribute names a method
LAYERS = [
    ("data", "load_jsonl", "data.load_jsonl"),
    ("distill", "load_checkpoint", "distill.load_checkpoint"),
    ("evaluation", "fused_rank", "op.fused_rank"),
    ("teacher", "mmr_select", "op.mmr_select"),
    ("evaluation", "evaluate_model", "op.evaluate_model"),
    ("distill", "train", "op.train"),
    ("distill", "CDMModel.request_arrays", "distill.request_arrays"),
    ("backbone", "score_all_detached", "backbone.score_all_detached"),
    ("distill", "win_probabilities_detached",
     "distill.win_probabilities_detached"),
    ("evaluation", "top_k_fused", "evaluation.top_k_fused"),
    ("teacher", "mmr_core", "teacher.mmr_core"),
    ("distill", "request_loss", "distill.request_loss"),
    ("cce", "sample_contexts", "cce.sample_contexts"),
    ("autodiff", "Tape.backward", "autodiff.backward"),
    ("autodiff", "ParamStore.sgd_step", "autodiff.sgd_step"),
    ("backbone", "score_logits", "backbone.score_logits"),
    ("evaluation", "ilad_at_k", "evaluation.ilad_at_k"),
]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []      # [name, start, end, parent index, value]
        self.stack = []
        self.absent = []
        self._saved = []

    def install(self):
        for module, attr, name in LAYERS:
            owner = getattr(self.package, module, None)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            setattr(owner, leaf, self._wrap(fn, name))
            self._saved.append((owner, leaf, fn))

    def close(self):
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        params = list(inspect.signature(fn).parameters)
        slot = params.index("counters") \
            if name == "teacher.mmr_core" and "counters" in params else None
        # request_loss spans are named by its flag: _train or _eval
        training = name == "distill.request_loss"
        tape = name == "autodiff.backward"

        def traced(*args, **kwargs):
            label = name
            if training:
                label += "_train" if kwargs.get("training") else "_eval"
            counters = None
            if slot is not None:
                # count similarity evaluations unless the caller does
                if len(args) > slot and args[slot] is None:
                    counters = {}
                    args = args[:slot] + (counters,) + args[slot + 1:]
                elif len(args) <= slot and kwargs.get("counters") is None:
                    counters = kwargs["counters"] = {}
            value = len(args[0]) if tape and hasattr(args[0], "__len__") \
                else None
            me = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, value])
            stack.append(me)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[me]
                span[1], span[2] = start, end
                if counters is not None:
                    span[4] = counters.get("sim_evals", 0)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent,
                       "fields": ["name", "start", "end", "parent", "value"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def summarize(spans, first_timed, timed_s, rounds):
    """Per-layer figures from the recorded spans.

    Spans from index first_timed on belong to the traced rounds, whose
    wall time is timed_s; untraced_s is the part of it that no layer span
    covers (operation self time and loop overhead), per round.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def mean_ms(name):
        xs = by_name.get(name, [])
        return 1e3 * sum(s[2] - s[1] for s in xs) / len(xs) if xs else 0.0

    def mean_s(name):
        return mean_ms(name) / 1e3

    # which operation span each span runs under
    root = []
    for s in spans:
        parent = s[3]
        if s[0].startswith("op."):
            root.append(s[0])
        else:
            root.append(root[parent] if parent >= 0 else None)

    ranked = len(by_name.get("op.fused_rank", []))
    decode = [s for s, r in zip(spans, root)
              if s[0] == "distill.request_arrays" and r == "op.fused_rank"]

    # joint mini-batches: tapes that carried training requests
    batch_ms, nodes, requests, pending = [], 0, 0, 0
    for s in spans:
        if s[0] == "distill.request_loss_train":
            pending += 1
        elif s[0] == "autodiff.backward":
            if pending:
                batch_ms.append(1e3 * (s[2] - s[1]))
                nodes += s[4] or 0
                requests += pending
            pending = 0

    mmr = by_name.get("teacher.mmr_core", [])
    sim = [s[4] for s in mmr if s[4] is not None]

    covered = 0.0
    for s in spans[first_timed:]:
        parent = s[3]
        outer = parent < 0 or spans[parent][0].startswith("op.")
        if not s[0].startswith("op.") and outer:
            covered += s[2] - s[1]

    per_round = max(rounds, 1)
    return {
        "data.load_jsonl_s": (mean_s("data.load_jsonl"), "s"),
        "distill.load_checkpoint_s": (mean_s("distill.load_checkpoint"), "s"),
        "distill.request_arrays_ms": (
            1e3 * sum(s[2] - s[1] for s in decode) / ranked if ranked else 0.0,
            "ms"),
        "distill.request_arrays_calls": (
            len(decode) / ranked if ranked else 0.0, "count"),
        "backbone.score_all_detached_ms": (
            mean_ms("backbone.score_all_detached"), "ms"),
        "distill.win_probabilities_detached_ms": (
            mean_ms("distill.win_probabilities_detached"), "ms"),
        "evaluation.top_k_fused_ms": (mean_ms("evaluation.top_k_fused"), "ms"),
        "teacher.mmr_core_ms": (mean_ms("teacher.mmr_core"), "ms"),
        "teacher.sim_evals": (sum(sim) / len(sim) if sim else 0.0, "count"),
        "distill.request_loss_train_ms": (
            mean_ms("distill.request_loss_train"), "ms"),
        "cce.sample_contexts_ms": (mean_ms("cce.sample_contexts"), "ms"),
        "autodiff.backward_ms": (
            sum(batch_ms) / len(batch_ms) if batch_ms else 0.0, "ms"),
        "autodiff.tape_nodes_per_request": (
            nodes / requests if requests else 0.0, "count"),
        "autodiff.sgd_step_ms": (mean_ms("autodiff.sgd_step"), "ms"),
        "backbone.score_logits_ms": (mean_ms("backbone.score_logits"), "ms"),
        "distill.request_loss_eval_ms": (
            mean_ms("distill.request_loss_eval"), "ms"),
        "evaluation.ilad_at_k_ms": (mean_ms("evaluation.ilad_at_k"), "ms"),
        "untraced_s": ((timed_s - covered) / per_round, "s"),
    }
