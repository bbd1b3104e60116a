"""Data model, JSONL ingestion and deterministic synthetic generation.

The synthetic generator builds a clustered catalog: items live near one of
G unit-norm category centers, users prefer 1-3 categories, and candidate
pools oversample the preferred categories so every request contains both
near-duplicate and dissimilar items.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .autodiff import sigmoid


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class CandidateEntry:
    item_id: str
    label: int | None = None  # None means the item was never shown


@dataclass(frozen=True)
class Request:
    """One request: its candidates' item ids and labels, in input order.

    A label is 1 (clicked), 0 (shown, not clicked) or -1 (never shown).
    """

    request_id: str
    user_id: str
    item_ids: tuple
    labels: tuple

    @property
    def candidates(self):
        """The candidates as CandidateEntry objects, label None if unshown."""
        return tuple(CandidateEntry(iid, None if y < 0 else y)
                     for iid, y in zip(self.item_ids, self.labels))


def _first_seen(keys) -> dict:
    """The distinct keys in first-seen order, each mapped to its index."""
    return dict(zip(dict.fromkeys(keys), count()))


class Dataset:
    """Immutable after construction. The three vocabularies map user, item
    and category ids to indices in first-seen order."""

    def __init__(self, requests, items, vocab_from: "Dataset | None" = None):
        self.requests = list(requests)
        self.items = dict(items)  # item_id -> category_id
        if vocab_from is not None:
            self.item_vocab = vocab_from.item_vocab
            self.category_vocab = vocab_from.category_vocab
            self.user_vocab = vocab_from.user_vocab
            return
        self.user_vocab = _first_seen(req.user_id for req in self.requests)
        self.item_vocab = _first_seen(chain.from_iterable(
            req.item_ids for req in self.requests))
        # an item's category is fixed, so categories first seen over the
        # distinct items come in the same order as over every candidate
        self.category_vocab = _first_seen(map(self.items.__getitem__,
                                              self.item_vocab))

    def __len__(self):
        return len(self.requests)


_LABEL_CODE = {None: -1, 0: 0, 1: 1}


def _parse_request(obj, line_no, category_of):
    """Validate one parsed line into a Request; category_of (item id ->
    category id over the lines so far) gains the line's new items."""
    def fail(msg):
        raise DataError(f"line {line_no}: {msg}")

    if type(obj) is not dict:
        fail(f"expected a JSON object, got {type(obj).__name__}")
    for field_name in ("request_id", "user_id", "candidates"):
        if field_name not in obj:
            fail(f"missing field {field_name!r}")
    for field_name in ("request_id", "user_id"):
        if type(obj[field_name]) is not str:
            fail(f"{field_name} must be a string, got {obj[field_name]!r}")
    cands = obj["candidates"]
    if type(cands) is not list:
        fail(f"candidates must be a list, got {type(cands).__name__}")
    if not set(map(type, cands)) <= {dict}:
        fail("every candidate must be a JSON object")
    try:
        ids = [c["item_id"] for c in cands]
        cats = [c["category"] for c in cands]
    except KeyError:
        fail("candidate missing item_id or category")
    for name, values in (("item_id", ids), ("category", cats)):
        if not set(map(type, values)) <= {str}:
            bad = next(v for v in values if type(v) is not str)
            fail(f"{name} must be a string, got {bad!r}")
    if len(set(ids)) != len(ids):
        seen = set()
        for iid in ids:
            if iid in seen:
                fail(f"duplicate item {iid!r} in request")
            seen.add(iid)
    try:
        labels = tuple([_LABEL_CODE[c.get("label")] for c in cands])
    except (KeyError, TypeError):
        bad = next(y for y in (c.get("label") for c in cands)
                   if not (y is None or y in (0, 1)))
        fail(f"label must be 0 or 1, got {bad!r}")
    if len(ids) < 2:
        fail("request needs at least 2 candidates")
    if list(map(category_of.setdefault, ids, cats)) != cats:
        iid, cat = next((i, c) for i, c in zip(ids, cats)
                        if category_of[i] != c)
        fail(f"item {iid!r} has category {cat!r} here but "
             f"{category_of[iid]!r} on an earlier line")
    return Request(request_id=obj["request_id"], user_id=obj["user_id"],
                   item_ids=tuple(ids), labels=labels)


def load_jsonl(path) -> Dataset:
    """Read and validate a request file in one pass per line. A line that
    is not a valid request raises DataError naming the line."""
    requests = []
    category_of = {}
    # bytes in, one line decoded at a time, so a bad byte names its line
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DataError(f"line {line_no}: invalid UTF-8 at byte "
                                f"{e.start}") from e
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"line {line_no}: malformed JSON ({e.msg})") from e
            requests.append(_parse_request(obj, line_no, category_of))
    return Dataset(requests, category_of)


def save_jsonl(dataset: Dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        for req in dataset.requests:
            cands = []
            for iid, label in zip(req.item_ids, req.labels):
                entry = {"item_id": iid, "category": dataset.items[iid]}
                if label >= 0:
                    entry["label"] = label
                cands.append(entry)
            fh.write(json.dumps({"request_id": req.request_id,
                                 "user_id": req.user_id,
                                 "candidates": cands}) + "\n")


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass
class SyntheticSpec:
    seed: int = 0
    num_users: int = 200
    num_requests: int = 2400
    catalog_size: int = 2000
    num_categories: int = 8
    candidates_per_request: int = 200
    latent_dim: int = 16
    cluster_noise: float = 0.1
    show_fraction: float = 0.15
    preference_concentration: float = 4.0

    def validate(self):
        for name in ("num_users", "num_requests", "catalog_size",
                     "num_categories", "latent_dim"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        if self.candidates_per_request < 2:
            raise DataError("candidates_per_request must be >= 2")
        if not (0.0 < self.show_fraction <= 1.0):
            raise DataError("show_fraction must be in (0, 1]")
        if self.cluster_noise < 0.0:
            raise DataError("cluster_noise must be >= 0")
        if self.candidates_per_request > self.catalog_size:
            raise DataError("candidates_per_request exceeds catalog size")


def _normalize(v):
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    n = np.where(n == 0.0, 1.0, n)
    return v / n


def generate_latents(spec: SyntheticSpec):
    """Ground-truth latents: (item latents, item categories, user latents,
    user preferred-category lists). Deterministic under spec.seed."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xD1F]))
    centers = _normalize(rng.standard_normal((spec.num_categories,
                                              spec.latent_dim)))
    item_cat = rng.integers(0, spec.num_categories, size=spec.catalog_size)
    noise = spec.cluster_noise * rng.standard_normal(
        (spec.catalog_size, spec.latent_dim))
    item_lat = _normalize(centers[item_cat] + noise)

    pref_counts = rng.integers(1, 4, size=spec.num_users)
    prefs = []
    user_lat = np.empty((spec.num_users, spec.latent_dim))
    for u in range(spec.num_users):
        cats = rng.choice(spec.num_categories,
                          size=min(pref_counts[u], spec.num_categories),
                          replace=False)
        prefs.append(np.sort(cats))
        mix = centers[cats].sum(axis=0)
        mix = mix + (1.0 / spec.preference_concentration) * \
            rng.standard_normal(spec.latent_dim)
        user_lat[u] = _normalize(mix)
    return item_lat, item_cat, user_lat, prefs


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """A synthetic dataset; generate_latents validates the spec."""
    item_lat, item_cat, user_lat, prefs = generate_latents(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xCA7]))

    items = {f"i{i}": f"c{g}" for i, g in enumerate(item_cat.tolist())}

    by_cat = [np.flatnonzero(item_cat == g) for g in range(spec.num_categories)]
    n = spec.candidates_per_request
    n_shown = math.ceil(spec.show_fraction * n)
    requests = []
    for r in range(spec.num_requests):
        u = int(rng.integers(0, spec.num_users))
        pref = prefs[u]
        # oversample preferred categories so pools contain dense clusters
        n_pref = min(int(round(0.6 * n)), sum(len(by_cat[g]) for g in pref))
        chosen = []
        free = np.ones(spec.catalog_size, dtype=bool)
        if n_pref > 0 and len(pref) > 0:
            pool = np.concatenate([by_cat[g] for g in pref])
            take = min(n_pref, len(pool))
            chosen.append(rng.choice(pool, size=take, replace=False))
            free[chosen[0]] = False
        n_rest = n - (len(chosen[0]) if chosen else 0)
        chosen.append(rng.choice(np.flatnonzero(free), size=n_rest,
                                 replace=False))
        cand_idx = np.concatenate(chosen)
        rng.shuffle(cand_idx)

        shown = rng.choice(n, size=n_shown, replace=False)
        affinity = item_lat[cand_idx] @ user_lat[u]
        p_click = sigmoid(spec.preference_concentration * affinity)
        clicks = rng.random(n) < p_click

        labels = np.full(n, -1, dtype=np.int64)
        labels[shown] = clicks[shown]
        requests.append(Request(
            request_id=f"r{r}", user_id=f"u{u}",
            item_ids=tuple(f"i{idx}" for idx in cand_idx.tolist()),
            labels=tuple(labels.tolist())))
    return Dataset(requests, items)


def split_train_eval(dataset: Dataset, eval_fraction: float, seed: int):
    if not (0.0 < eval_fraction < 1.0):
        raise DataError("eval_fraction must be in (0, 1)")
    n = len(dataset.requests)
    n_eval = int(round(eval_fraction * n))
    if n_eval == 0 or n_eval == n:
        raise DataError(f"split of {n} requests at {eval_fraction} leaves an empty side")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    eval_idx = set(order[:n_eval].tolist())
    train_reqs = [r for i, r in enumerate(dataset.requests) if i not in eval_idx]
    eval_reqs = [r for i, r in enumerate(dataset.requests) if i in eval_idx]
    # both sides share the full item table and the parent's id assignment
    train = Dataset(train_reqs, dataset.items, vocab_from=dataset)
    evals = Dataset(eval_reqs, dataset.items, vocab_from=dataset)
    return train, evals
