"""Property tests of request ingestion over random ragged request lists:
the JSONL round trip, first-seen vocabulary order, and the columnar
decoder against a per-candidate reference decoder. Also the Top-K heap,
counted and uncounted, against a stable sort.
"""

import json
import os
import tempfile
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from divrank.backbone import TrainConfig
from divrank.data import load_jsonl, save_jsonl
from divrank.distill import CDMModel, context_pool
from divrank.evaluation import top_k_fused

ITEMS = [f"i{j}" for j in range(40)]
USERS = ["u0", "u1", "u2", "u3"]


@st.composite
def request_lists(draw):
    """JSON-ready request dicts; items repeat across requests, always with
    the category the list drew for them."""
    category = draw(st.fixed_dictionaries(
        {iid: st.sampled_from(["c0", "c1", "c2"]) for iid in ITEMS}))
    out = []
    for r in range(draw(st.integers(1, 6))):
        ids = draw(st.lists(st.sampled_from(ITEMS), min_size=2, max_size=30,
                            unique=True))
        labels = draw(st.lists(st.sampled_from([None, 0, 1]),
                               min_size=len(ids), max_size=len(ids)))
        cands = []
        for iid, label in zip(ids, labels):
            cand = {"item_id": iid, "category": category[iid]}
            if label is not None:
                cand["label"] = label
            cands.append(cand)
        out.append({"request_id": f"r{r}",
                    "user_id": draw(st.sampled_from(USERS)),
                    "candidates": cands})
    return out


def load_dicts(requests):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for req in requests:
                fh.write(json.dumps(req) + "\n")
        return load_jsonl(path)


def reference_arrays(model, request):
    """Per-candidate decoder: one item row, category row and label at a
    time, through the model's id-to-row dictionaries; then the user row
    and the context pool, from the id lists and the pool-seed formula
    that existing checkpoints were trained with."""
    n = len(request.candidates)
    item_idx = np.empty(n, dtype=np.int64)
    cat_idx = np.empty(n, dtype=np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    for j, cand in enumerate(request.candidates):
        item_idx[j] = model._item_row[cand.item_id]
        cat_idx[j] = model._cat_row[model.item_category[cand.item_id]]
        if cand.label is not None:
            labels[j] = cand.label
    config = model.config
    seed = (config.seed << 32) ^ zlib.crc32(request.request_id.encode())
    return {"u_idx": model.user_ids.index(request.user_id),
            "item_idx": item_idx, "cat_idx": cat_idx, "labels": labels,
            "pool": context_pool(n, config, seed)}


SETTINGS = settings(max_examples=60, deadline=None, database=None)


@SETTINGS
@given(request_lists())
def test_loader_keeps_ids_labels_and_first_seen_order(requests):
    ds = load_dicts(requests)
    assert [r.request_id for r in ds.requests] == \
        [r["request_id"] for r in requests]
    for got, want in zip(ds.requests, requests):
        assert got.user_id == want["user_id"]
        assert got.item_ids == tuple(c["item_id"] for c in want["candidates"])
        assert got.labels == tuple(c.get("label", -1)
                                   for c in want["candidates"])
    items, categories, users = [], [], []
    for req in requests:
        if req["user_id"] not in users:
            users.append(req["user_id"])
        for c in req["candidates"]:
            if c["item_id"] not in items:
                items.append(c["item_id"])
            if c["category"] not in categories:
                categories.append(c["category"])
    # each vocabulary maps its ids, in first-seen order, to 0, 1, 2, ...
    assert list(ds.item_vocab.items()) == [(k, i) for i, k in enumerate(items)]
    assert list(ds.category_vocab.items()) == \
        [(k, i) for i, k in enumerate(categories)]
    assert list(ds.user_vocab.items()) == [(k, i) for i, k in enumerate(users)]
    assert ds.items == {c["item_id"]: c["category"]
         for req in requests for c in req["candidates"]}


@SETTINGS
@given(request_lists())
def test_save_load_round_trip(requests):
    ds = load_dicts(requests)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.jsonl")
        save_jsonl(ds, path)
        again = load_jsonl(path)
    assert again.requests == ds.requests
    assert again.items == ds.items
    assert list(again.item_vocab.items()) == list(ds.item_vocab.items())


@SETTINGS
@given(request_lists(), st.integers(0, 2**31 - 1))
def test_request_arrays_match_reference_decoder(requests, seed):
    ds = load_dicts(requests)
    # requests hold 2-30 candidates, so pools are both whole and subsampled
    config = TrainConfig(d=4, k=2, max_context_pool=5, seed=seed).validate()
    model = CDMModel.from_dataset(ds, config)
    for req in ds.requests:
        got = model.request_arrays(req)
        for name, want in reference_arrays(model, req).items():
            value = getattr(got, name)
            assert np.asarray(value).dtype == np.asarray(want).dtype, name
            np.testing.assert_array_equal(value, want, err_msg=name)


# a small pool of values makes ties likely; 0.0 and -0.0 compare equal
EDGE_SCORES = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def scores_and_k(draw):
    values = draw(st.lists(
        st.one_of(st.sampled_from(EDGE_SCORES),
                  st.floats(allow_nan=False, allow_infinity=False)),
        max_size=60))
    return np.array(values, dtype=np.float64), \
        draw(st.integers(-2, len(values) + 2))


@settings(max_examples=300, deadline=None, database=None)
@given(scores_and_k())
def test_top_k_matches_stable_sort(case):
    scores, K = case
    n = len(scores)
    want = sorted(range(n), key=lambda i: (-scores[i], i))[:max(K, 0)]
    assert top_k_fused(scores, K).tolist() == want
    counters = {}
    assert top_k_fused(scores, K, counters).tolist() == want
    if 0 < K < n:
        assert counters["heap_comparisons"] >= n - K
