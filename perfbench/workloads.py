"""The three workloads: closed loops of whole rounds, then the checks.

One caller sends each request when the previous one returns. A run
repeats whole rounds of the same operations until the next round would
overrun its seconds, so every run fails the same share of operations.
Outputs of the first round are checked against the references in
checks.py; later rounds must reproduce the first round exactly.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import checks
import spans
from inputs import SHORT_TAG

TRAIN_SEED = 11
CHECK_SAMPLE = 40      # requests whose MLP, student and MMR steps are checked


class Loop:
    """Round runner; with tracing, round 0 runs untraced as the baseline
    and every later round runs traced."""

    def __init__(self, pkg, trace):
        self.tracer = spans.Tracer(pkg) if trace else None
        self.walls = []
        self.first_traced = 0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = {}     # (operation, request id) -> exception name

    def call(self, op, request_id, fn, *args):
        """One operation: (result or None, seconds)."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001  counted, reported by name
            self.failed += 1
            self.failures.setdefault((op, request_id), type(exc).__name__)
            return None, perf_counter() - start
        return out, perf_counter() - start

    def setup(self, load, reps, seconds):
        """Median of at least reps set-ups that together last at least
        seconds, traced when tracing; the last one's objects are kept."""
        if self.tracer:
            self.tracer.install()
        times, out = [], None
        while len(times) < reps or sum(times) < seconds:
            out = None
            start = perf_counter()
            out = load()
            times.append(perf_counter() - start)
        if self.tracer:
            self.tracer.close()
        return out, statistics.median(times)

    def run(self, round_fn, seconds, min_rounds):
        if self.tracer:
            min_rounds = max(min_rounds, 2)
        start = perf_counter()
        while True:
            if self.tracer and len(self.walls) == 1:
                self.first_traced = len(self.tracer.spans)
                self.tracer.install()
            # each round starts from a collected heap, so the peak does not
            # hang on where the collector's thresholds fall across rounds
            gc.collect()
            t0 = perf_counter()
            round_fn(len(self.walls))
            self.walls.append(perf_counter() - t0)
            done = perf_counter() - start
            if len(self.walls) >= min_rounds and \
                    done + statistics.mean(self.walls) > seconds:
                break
        if self.tracer:
            self.tracer.close()
        # before the checks, whose references are not the program's memory
        self.peak_rss_mb = peak_rss_mb()

    def trace_metrics(self):
        traced = self.walls[1:]
        out = spans.summarize(self.tracer.spans, self.first_traced,
                              sum(traced), len(traced))
        out["trace.overhead_s"] = (statistics.mean(traced) - self.walls[0],
                                   "s")
        return out


class Rate:
    """Operations per second over every timed call of a run."""

    def __init__(self):
        self.count, self.seconds = 0, 0.0

    def add(self, count, seconds):
        self.count += count
        self.seconds += seconds

    def value(self):
        return self.count / self.seconds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(out):
    """Exact identity of one operation's output, for round-to-round checks."""
    if out is None or isinstance(out, str):
        return out
    if hasattr(out, "winning_idx"):
        return (tuple(out.winning_idx.tolist()), tuple(out.gains))
    if hasattr(out, "item_idx"):
        return (tuple(out.item_idx.tolist()), out.scores.tobytes())
    return repr([r.to_dict() for r in out])


def read_raw(path):
    """The request file as plain dicts, parsed without the package."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Served:
    """fused_rank, mmr_select and evaluate_model over a request list.

    The requests are split into consecutive groups. A round takes each
    group in turn: it ranks every request of the group `passes` times,
    labels every `label_every`-th one once with the teacher (spread evenly
    between the ranking calls), then calls evaluate_model on the group's
    requests that are not short. So every latency and rate samples the
    whole run alike, not one stretch of it. Round 0's outputs are kept for
    the checks, and every later output must equal them.
    """

    def __init__(self, pkg, loop, model, ds, requests, K, K_teacher, gamma,
                 groups):
        self.pkg, self.loop, self.model = pkg, loop, model
        self.requests = requests
        self.K, self.K_teacher, self.gamma = K, K_teacher, gamma
        self.rank_lat, self.mmr_lat = [], []
        self.rank_s = 0.0                 # time spent in fused_rank calls
        self.eval_rate = Rate()
        self.ranked = [None] * len(requests)
        self.labeled = [None] * len(requests)
        self.groups = []         # (indices, evaluated indices, dataset)
        for idx in np.array_split(np.arange(len(requests)), groups):
            idx = idx.tolist()
            # evaluate_model aborts on a short request, so it gets the others
            ev_idx = [i for i in idx
                      if not requests[i].request_id.startswith(SHORT_TAG)]
            self.groups.append((idx, ev_idx, pkg.data.Dataset(
                [requests[i] for i in ev_idx], ds.items, vocab_from=ds)))
        self.reports = [None] * groups    # round 0's evaluate_model output
        self.prints = {}
        self.mismatch = []

    def keep(self, rnd, key, out):
        """key is (operation, what it ran on)."""
        fp = fingerprint(out)
        if key not in self.prints:
            self.prints[key] = fp
        elif self.prints[key] != fp and len(self.mismatch) < 5:
            self.mismatch.append(f"round {rnd}: {key[0]} output of {key[1]} "
                                 "differs from round 0")

    def serve_round(self, rnd, passes=1, label_every=1):
        for g, (idx, _, eval_ds) in enumerate(self.groups):
            self.serve_group(rnd, idx, passes, label_every)
            out, dt = self.loop.call("evaluate_model", f"group {g}",
                                     self.pkg.evaluation.evaluate_model,
                                     self.model, eval_ds, [self.K],
                                     [0.0, self.gamma])
            if out is not None:
                self.eval_rate.add(len(eval_ds.requests), dt)
                self.keep(rnd, ("evaluate", f"group {g}"), out)
                if rnd == 0:
                    self.reports[g] = out

    def serve_group(self, rnd, idx, passes, label_every):
        rank, mmr = self.pkg.evaluation.fused_rank, self.pkg.teacher.mmr_select
        lam = self.model.config.lam
        n = len(idx)
        for step in range(passes * n):
            i = idx[step % n]
            req = self.requests[i]
            out, dt = self.loop.call("fused_rank", req.request_id, rank,
                                     self.model, req, self.K, self.gamma)
            self.rank_s += dt
            if out is not None:
                self.rank_lat.append(dt)
            self.keep(rnd, ("rank", req.request_id), out)
            if rnd == 0 and step < n:
                self.ranked[i] = out
            j = step // passes
            if step % passes == passes - 1 and j % label_every == 0:
                req = self.requests[idx[j]]
                out, dt = self.loop.call("mmr_select", req.request_id, mmr,
                                         req, self.model, lam, self.K_teacher)
                if out is not None:
                    self.mmr_lat.append(dt)
                self.keep(rnd, ("mmr", req.request_id), out)
                if rnd == 0:
                    self.labeled[idx[j]] = out

    def latency_metrics(self, p90_samples):
        if len(self.rank_lat) < p90_samples:
            raise checks.CheckFailed(
                f"{len(self.rank_lat)} ranked requests cannot support a 90th "
                f"percentile (need {p90_samples})")
        p50, p90 = np.percentile(np.asarray(self.rank_lat) * 1e3, [50, 90])
        return {"requests_per_s": (len(self.rank_lat) / self.rank_s, "1/s"),
                "rank_p50_ms": (float(p50), "ms"),
                "rank_p90_ms": (float(p90), "ms"),
                "mmr_p50_ms": (float(np.median(self.mmr_lat)) * 1e3, "ms"),
                "evaluate_requests_per_s": (self.eval_rate.value(), "1/s")}

    def warm_up(self):
        """One untimed fused_rank and mmr_select on the first request that
        is not short."""
        req = next(r for r in self.requests
                   if not r.request_id.startswith(SHORT_TAG))
        self.pkg.evaluation.fused_rank(self.model, req, self.K, self.gamma)
        self.pkg.teacher.mmr_select(req, self.model, self.model.config.lam,
                                    self.K_teacher)

    def check(self, raw, weights, auc_floor=None):
        """Lists, accuracy, student, MMR steps and evaluate_model's ILAD
        and recall; with auc_floor, the held-out student AUC too."""
        ev = self.pkg.evaluation
        model = self.model
        if self.mismatch:
            raise checks.CheckFailed("; ".join(self.mismatch))
        for i, out in enumerate(self.ranked):
            if out is not None:
                checks.check_ranked_list(raw[i], out, ev.fused_scores(
                    model, self.requests[i], self.gamma), self.K)
        ranked = [i for i, out in enumerate(self.ranked) if out is not None]
        labeled = [i for i in ranked if self.labeled[i] is not None]
        for i in labeled[:CHECK_SAMPLE]:
            checks.check_mmr(raw[i], weights, self.labeled[i], min(
                self.K_teacher, len(self.requests[i].candidates)))
        aucs = []
        for i in (labeled if auc_floor is not None else ranked[:CHECK_SAMPLE]):
            probs = model.win_probabilities(self.requests[i])
            checks.check_probabilities(raw[i], probs)
            if auc_floor is not None:
                aucs.append(checks.pairwise_auc(self.labeled[i].y_tea, probs))
        accuracy_checked = 0
        for (_, ev_idx, _), reports in zip(self.groups, self.reports):
            if reports is None:       # evaluate_model failed, counted so
                continue
            if any(self.ranked[i] is None for i in ev_idx):
                raise checks.CheckFailed("fused_rank failed on a request "
                                         "that evaluate_model ranked")
            lists = {self.gamma: [self.ranked[i].item_idx for i in ev_idx],
                     0.0: []}
            for i in ev_idx:
                acc = ev.fused_scores(model, self.requests[i], 0.0)
                if accuracy_checked < CHECK_SAMPLE:
                    checks.check_accuracy(raw[i], weights, acc)
                    accuracy_checked += 1
                out = ev.fused_rank(model, self.requests[i], self.K, 0.0)
                checks.check_ranked_list(raw[i], out, acc, self.K)
                lists[0.0].append(out.item_idx)
            raw_eval = [raw[i] for i in ev_idx]
            for report in reports:
                checks.check_report(report, lists[report.gamma], raw_eval,
                                    weights)
        if auc_floor is not None:
            return checks.check_auc(aucs, auc_floor)
        return None


# ---------------------------------------------------------------------------
# workloads


def serve(pkg, paths, scale, seconds, trace, long=False):
    loop = Loop(pkg, trace)

    def load():
        return (pkg.data.load_jsonl(paths["data"]),
                pkg.distill.load_checkpoint(paths["checkpoint"]))

    (ds, model), setup_s = loop.setup(load, scale.setup_reps,
                                      scale.setup_seconds)
    K = scale.long_K if long else scale.serve_K
    passes = scale.long_rank_passes if long else 1
    label_every = scale.long_label_every if long else 1
    served = Served(pkg, loop, model, ds, ds.requests, K, K, scale.gamma,
                    scale.groups)
    served.warm_up()
    ranked_per_round = passes * sum(len(ev_idx)
                                    for _, ev_idx, _ in served.groups)
    loop.run(lambda rnd: served.serve_round(rnd, passes, label_every),
             seconds, math.ceil(scale.p90_samples / ranked_per_round))
    raw = read_raw(paths["data"])
    weights = checks.Weights.from_checkpoint_files(paths["checkpoint"])
    served.check(raw, weights)
    if loop.tracer:
        metrics = loop.trace_metrics()
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mb": (loop.peak_rss_mb, "MB"),
                   **served.latency_metrics(scale.p90_samples)}
    return loop, metrics


def serve_long(pkg, paths, scale, seconds, trace):
    return serve(pkg, paths, scale, seconds, trace, long=True)


def train(pkg, paths, scale, seconds, trace):
    loop = Loop(pkg, trace)
    ds, setup_s = loop.setup(lambda: pkg.data.load_jsonl(paths["data"]),
                             scale.setup_reps, scale.setup_seconds)
    n_train, n_val = scale.train_requests, scale.val_requests
    Dataset = pkg.data.Dataset
    train_ds = Dataset(ds.requests[:n_train], ds.items, vocab_from=ds)
    val_ds = Dataset(ds.requests[n_train:n_train + n_val], ds.items,
                     vocab_from=ds)
    held = ds.requests[n_train + n_val:]
    # patience above the joint-epoch count: every epoch runs
    config = pkg.backbone.TrainConfig(
        K_teacher=scale.K_teacher, warm_epochs=1,
        joint_epochs=scale.joint_epochs, patience=scale.joint_epochs + 1,
        seed=TRAIN_SEED)
    served = Served(pkg, loop, None, ds, held, scale.serve_K,
                    scale.K_teacher, scale.gamma, scale.groups)
    first = {}             # round 0's model and history
    train_rate = Rate()

    def one_round(rnd):
        out, dt = loop.call("train", "all", pkg.distill.train, train_ds,
                            config, val_ds)
        if out is None:
            return
        served.model, history = out
        train_rate.add(n_train * len(history), dt)
        served.keep(rnd, ("train", "the training split"),
                    json.dumps(history))
        first.setdefault("model", served.model)
        first.setdefault("history", history)
        served.serve_round(rnd)

    loop.run(one_round, seconds, 1)
    if "model" not in first:
        raise checks.CheckFailed("distill.train failed in every round")
    served.model = first["model"]
    checks.check_training(first["history"], 1, scale.joint_epochs)
    raw = read_raw(paths["data"])[n_train + n_val:]
    weights = checks.Weights.from_model(served.model)
    auc = served.check(raw, weights, auc_floor=scale.auc_floor)
    print(f"held-out student AUC vs teacher labels: {auc:.4f}",
          file=sys.stderr)
    if loop.tracer:
        metrics = loop.trace_metrics()
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mb": (loop.peak_rss_mb, "MB"),
                   **served.latency_metrics(scale.p90_samples)}
        # here the workload's rate is training, not ranking
        metrics["requests_per_s"] = (train_rate.value(), "1/s")
    return loop, metrics


WORKLOADS = {"serve": serve, "serve-long": serve_long, "train": train}
