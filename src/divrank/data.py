"""Data model, JSONL ingestion and deterministic synthetic generation.

The synthetic generator builds a clustered catalog: items live near one of
G unit-norm category centers, users prefer 1-3 categories, and candidate
pools oversample the preferred categories so every request contains both
near-duplicate and dissimilar items.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class CandidateEntry:
    item_id: str
    label: int | None = None  # None means the item was never shown


@dataclass(frozen=True)
class Item:
    item_id: str
    category_id: str


@dataclass(frozen=True)
class Request:
    request_id: str
    user_id: str
    candidates: tuple


@dataclass
class Vocab:
    """Deterministic string -> id assignment in first-seen order."""

    _ids: dict = field(default_factory=dict)

    def get_or_add(self, key: str) -> int:
        if key not in self._ids:
            self._ids[key] = len(self._ids)
        return self._ids[key]

    def __getitem__(self, key: str) -> int:
        if key not in self._ids:
            raise KeyError(f"unknown vocabulary entry: {key!r}")
        return self._ids[key]

    def __contains__(self, key):
        return key in self._ids

    def __len__(self):
        return len(self._ids)

    def keys(self):
        return list(self._ids)


class Dataset:
    """Immutable after construction; vocabularies built in first-seen order."""

    def __init__(self, requests, items, vocab_from: "Dataset | None" = None):
        self.requests = list(requests)
        self.items = dict(items)  # item_id -> Item
        if vocab_from is not None:
            self.item_vocab = vocab_from.item_vocab
            self.category_vocab = vocab_from.category_vocab
            self.user_vocab = vocab_from.user_vocab
            return
        self.item_vocab = Vocab()
        self.category_vocab = Vocab()
        self.user_vocab = Vocab()
        for req in self.requests:
            self.user_vocab.get_or_add(req.user_id)
            for cand in req.candidates:
                item = self.items[cand.item_id]
                self.item_vocab.get_or_add(item.item_id)
                self.category_vocab.get_or_add(item.category_id)

    def __len__(self):
        return len(self.requests)


def _parse_request(obj, line_no):
    for field_name in ("request_id", "user_id", "candidates"):
        if field_name not in obj:
            raise DataError(f"line {line_no}: missing field {field_name!r}")
    cands = []
    items = {}
    seen = set()
    for c in obj["candidates"]:
        if "item_id" not in c or "category" not in c:
            raise DataError(
                f"line {line_no}: candidate missing item_id or category")
        iid = c["item_id"]
        if iid in seen:
            raise DataError(f"line {line_no}: duplicate item {iid!r} in request")
        seen.add(iid)
        label = c.get("label")
        if label is not None and label not in (0, 1):
            raise DataError(f"line {line_no}: label must be 0 or 1, got {label!r}")
        cands.append(CandidateEntry(item_id=iid, label=label))
        items[iid] = Item(item_id=iid, category_id=c["category"])
    if len(cands) < 2:
        raise DataError(f"line {line_no}: request needs at least 2 candidates")
    return Request(request_id=obj["request_id"], user_id=obj["user_id"],
                   candidates=tuple(cands)), items


def load_jsonl(path) -> Dataset:
    requests = []
    items = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"line {line_no}: malformed JSON ({e.msg})") from e
            req, req_items = _parse_request(obj, line_no)
            requests.append(req)
            items.update(req_items)
    return Dataset(requests, items)


def save_jsonl(dataset: Dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        for req in dataset.requests:
            cands = []
            for c in req.candidates:
                entry = {"item_id": c.item_id,
                         "category": dataset.items[c.item_id].category_id}
                if c.label is not None:
                    entry["label"] = int(c.label)
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
    spec.validate()
    item_lat, item_cat, user_lat, prefs = generate_latents(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xCA7]))

    items = {}
    for i in range(spec.catalog_size):
        iid = f"i{i}"
        items[iid] = Item(item_id=iid, category_id=f"c{item_cat[i]}")

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
        if n_pref > 0 and len(pref) > 0:
            pool = np.concatenate([by_cat[g] for g in pref])
            take = min(n_pref, len(pool))
            chosen.append(rng.choice(pool, size=take, replace=False))
        already = set(chosen[0].tolist()) if chosen else set()
        rest_pool = np.array([i for i in range(spec.catalog_size)
                              if i not in already])
        n_rest = n - (len(chosen[0]) if chosen else 0)
        chosen.append(rng.choice(rest_pool, size=n_rest, replace=False))
        cand_idx = np.concatenate(chosen)
        rng.shuffle(cand_idx)

        shown = rng.choice(n, size=n_shown, replace=False)
        affinity = item_lat[cand_idx] @ user_lat[u]
        p_click = expit(spec.preference_concentration * affinity)
        clicks = rng.random(n) < p_click

        cands = []
        shown_set = set(shown.tolist())
        for j, idx in enumerate(cand_idx):
            label = int(clicks[j]) if j in shown_set else None
            cands.append(CandidateEntry(item_id=f"i{idx}", label=label))
        requests.append(Request(request_id=f"r{r}", user_id=f"u{u}",
                                candidates=tuple(cands)))
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
