"""Dataset loading, validation errors, vocab determinism and the
synthetic generator's structural guarantees.
"""

import json

import numpy as np
import pytest

from divrank import data
from divrank.backbone import TrainConfig, VocabError
from divrank.data import (CandidateEntry, DataError, Dataset, Request,
                          SyntheticSpec, generate_latents,
                          generate_synthetic, load_jsonl, save_jsonl,
                          split_train_eval)
from divrank.distill import CDMModel


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def valid_line(request_id="r1", user_id="u1", n=3, labels=(1, 0, None)):
    cands = []
    for j in range(n):
        c = {"item_id": f"i{j}", "category": f"c{j % 2}"}
        if labels[j] is not None:
            c["label"] = labels[j]
        cands.append(c)
    return json.dumps({"request_id": request_id, "user_id": user_id,
                       "candidates": cands})


class TestLoadJsonl:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [valid_line("r1"), valid_line("r2", "u2")])
        ds = load_jsonl(p)
        assert len(ds) == 2
        assert ds.requests[0].item_ids == ("i0", "i1", "i2")
        assert ds.requests[0].labels == (1, 0, -1)
        out = tmp_path / "out.jsonl"
        save_jsonl(ds, out)
        ds2 = load_jsonl(out)
        assert ds2.requests[0] == ds.requests[0]
        assert ds2.items == ds.items

    def test_candidates_property_derives_entries(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [valid_line()])
        req = load_jsonl(p).requests[0]
        assert req.candidates == (CandidateEntry("i0", 1),
                                  CandidateEntry("i1", 0),
                                  CandidateEntry("i2", None))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(valid_line() + "\n\n\n", encoding="utf-8")
        assert len(load_jsonl(p)) == 1

    @pytest.mark.parametrize("bad,msg", [
        ("{not json", "malformed JSON"),
        (json.dumps({"user_id": "u", "candidates": []}), "request_id"),
        (json.dumps({"request_id": "r", "user_id": "u",
                     "candidates": [{"item_id": "a", "category": "c"},
                                    {"category": "c"}]}), "item_id"),
        (json.dumps({"request_id": "r", "user_id": "u",
                     "candidates": [{"item_id": "a", "category": "c"},
                                    {"item_id": "a", "category": "c"}]}),
         "duplicate"),
        (json.dumps({"request_id": "r", "user_id": "u",
                     "candidates": [{"item_id": "a", "category": "c",
                                     "label": 2},
                                    {"item_id": "b", "category": "c"}]}),
         "label"),
        (json.dumps({"request_id": "r", "user_id": "u",
                     "candidates": [{"item_id": "a", "category": "c"}]}),
         "at least 2"),
        ("5", "expected a JSON object, got int"),
        (json.dumps({"request_id": "r", "user_id": "u", "candidates": 7}),
         "candidates must be a list"),
        (json.dumps({"request_id": "r", "user_id": "u",
                     "candidates": [{"item_id": [1], "category": "c"},
                                    {"item_id": "b", "category": "c"}]}),
         "item_id must be a string, got [1]"),
        (json.dumps({"request_id": "r", "user_id": {"a": 1},
                     "candidates": [{"item_id": "a", "category": "c"},
                                    {"item_id": "b", "category": "c"}]}),
         "user_id must be a string"),
        # valid_line puts i0 under c0
        (json.dumps({"request_id": "r", "user_id": "u",
                     "candidates": [{"item_id": "i0", "category": "c1"},
                                    {"item_id": "b", "category": "c"}]}),
         "item 'i0' has category 'c1' here but 'c0' on an earlier line"),
    ])
    def test_malformed_line_reports_line_number(self, tmp_path, bad, msg):
        p = tmp_path / "d.jsonl"
        write_lines(p, [valid_line(), bad])
        with pytest.raises(DataError, match="line 2") as e:
            load_jsonl(p)
        assert msg in str(e.value)

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        p = tmp_path / "d.jsonl"
        bad = json.dumps({"request_id": "r", "user_id": "u",
                          "candidates": [{"item_id": "a@", "category": "c"},
                                         {"item_id": "b", "category": "c"}]})
        p.write_bytes((valid_line() + "\n").encode("utf-8")
                      + bad.encode("utf-8").replace(b"@", b"\xff") + b"\n")
        with pytest.raises(DataError, match="line 2: invalid UTF-8"):
            load_jsonl(p)

    def test_crlf_line_endings_accepted(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_bytes((valid_line() + "\r\n").encode("utf-8"))
        assert len(load_jsonl(p).requests) == 1


class TestVocab:
    def test_first_seen_order(self, tmp_path):
        assert list(data._first_seen(["b", "a", "b", "c"]).items()) == \
            [("b", 0), ("a", 1), ("c", 2)]
        p = tmp_path / "d.jsonl"
        write_lines(p, [valid_line("r1", "u2"), valid_line("r2", "u1"),
                        valid_line("r3", "u2")])
        assert list(load_jsonl(p).user_vocab.items()) == \
            [("u2", 0), ("u1", 1)]

    def test_unknown_key_raises(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [valid_line()])
        ds = load_jsonl(p)
        model = CDMModel.from_dataset(ds, TrainConfig())
        stranger = Request("r2", "u1", ("i0", "missing"), (1, 0))
        with pytest.raises(VocabError, match="'missing'"):
            model.request_arrays(stranger)

    def test_dataset_vocab_deterministic(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [valid_line("r1"), valid_line("r2", "u2")])
        a, b = load_jsonl(p), load_jsonl(p)
        assert list(a.item_vocab.items()) == list(b.item_vocab.items())
        assert list(a.user_vocab.items()) == list(b.user_vocab.items())

    def test_request_arrays_marks_unshown(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [valid_line()])
        ds = load_jsonl(p)
        model = CDMModel.from_dataset(ds, TrainConfig())
        rows = model.request_arrays(ds.requests[0])
        assert rows.labels.tolist() == [1, 0, -1]


class TestSyntheticSpecValidation:
    @pytest.mark.parametrize("field,value", [
        ("num_users", 0), ("num_requests", -1), ("catalog_size", 0),
        ("num_categories", 0), ("latent_dim", 0),
        ("candidates_per_request", 1), ("show_fraction", 0.0),
        ("show_fraction", 1.5), ("cluster_noise", -0.1),
    ])
    def test_bad_values_rejected(self, field, value):
        spec = SyntheticSpec(**{field: value})
        with pytest.raises(DataError):
            spec.validate()

    def test_pool_larger_than_catalog_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(catalog_size=10,
                          candidates_per_request=20).validate()


SMALL = SyntheticSpec(seed=11, num_users=6, num_requests=20, catalog_size=40,
                      num_categories=4, candidates_per_request=12,
                      latent_dim=8)


class TestSyntheticGenerator:
    def test_deterministic_under_seed(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        assert [r.request_id for r in a.requests] == \
            [r.request_id for r in b.requests]
        for ra, rb in zip(a.requests, b.requests):
            assert ra == rb

    def test_different_seed_changes_data(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SyntheticSpec(**{**SMALL.__dict__, "seed": 12}))
        assert any(ra != rb for ra, rb in zip(a.requests, b.requests))

    def test_shapes_and_labels(self):
        ds = generate_synthetic(SMALL)
        assert len(ds.requests) == SMALL.num_requests
        n_shown_expected = int(np.ceil(SMALL.show_fraction
                                       * SMALL.candidates_per_request))
        for req in ds.requests:
            assert len(req.item_ids) == SMALL.candidates_per_request
            assert len(req.labels) == SMALL.candidates_per_request
            assert len(set(req.item_ids)) == len(req.item_ids)
            shown = [y for y in req.labels if y >= 0]
            assert len(shown) == n_shown_expected
            assert all(y in (0, 1) for y in shown)

    def test_latents_unit_norm_and_clustered(self):
        item_lat, item_cat, user_lat, prefs = generate_latents(SMALL)
        np.testing.assert_allclose(np.linalg.norm(item_lat, axis=1), 1.0,
                                   atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(user_lat, axis=1), 1.0,
                                   atol=1e-9)
        assert all(1 <= len(p) <= 3 for p in prefs)
        # items of one category sit closer to each other than to the rest
        within, across = [], []
        for g in range(SMALL.num_categories):
            members = item_lat[item_cat == g]
            others = item_lat[item_cat != g]
            if len(members) < 2:
                continue
            within.append((members @ members.T).mean())
            across.append((members @ others.T).mean())
        assert np.mean(within) > np.mean(across) + 0.3

    def test_pool_oversamples_preferred_categories(self):
        ds = generate_synthetic(SMALL)
        _, item_cat, _, prefs = generate_latents(SMALL)
        user_ids = {f"u{u}": u for u in range(SMALL.num_users)}
        ratios = []
        for req in ds.requests:
            pref = set(prefs[user_ids[req.user_id]].tolist())
            cats = [item_cat[int(iid[1:])] for iid in req.item_ids]
            ratios.append(np.mean([c in pref for c in cats]))
        base = np.mean([np.mean(np.isin(item_cat,
                                        list(set(prefs[u].tolist()))))
                        for u in range(SMALL.num_users)])
        assert np.mean(ratios) > base


class TestSplit:
    def test_disjoint_and_complete(self):
        ds = generate_synthetic(SMALL)
        train, evals = split_train_eval(ds, 0.25, seed=3)
        tids = {r.request_id for r in train.requests}
        eids = {r.request_id for r in evals.requests}
        assert not (tids & eids)
        assert len(tids) + len(eids) == len(ds)
        assert len(eids) == round(0.25 * len(ds))

    def test_shares_parent_vocab(self):
        ds = generate_synthetic(SMALL)
        train, evals = split_train_eval(ds, 0.25, seed=3)
        assert train.item_vocab is ds.item_vocab
        assert evals.user_vocab is ds.user_vocab
        for req in evals.requests:
            for iid in req.item_ids:
                assert iid in evals.item_vocab

    def test_degenerate_fractions_rejected(self):
        ds = generate_synthetic(SMALL)
        for frac in (0.0, 1.0, 0.001):
            with pytest.raises(DataError):
                split_train_eval(ds, frac, seed=0)
