"""Seeded benchmark inputs: a fixed clustered world, request files drawn
from it by the workload seed, and the serving checkpoint.

The world (catalog, categories, user tastes) and the serving checkpoint
depend only on constants here, so every seed is served by the same model;
the requests, their pool sizes' order, users and labels follow the seed.
The short requests of `serve` are drawn from a constant seed: they fail
the same way in every run, so their share of failed operations is fixed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

WORLD_SEED = 0x5EED
CKPT_SEED = 7
SHORT_SEED = 0x5407
SHOW_FRACTION = 0.15
SHORT_TAG = "short-"   # request-id prefix of the constant short requests


@dataclass(frozen=True)
class WorldSpec:
    catalog_size: int
    num_users: int
    num_categories: int = 8
    latent_dim: int = 16
    cluster_noise: float = 0.1
    preference: float = 4.0      # click-logit scale on user-item affinity
    pref_weight: float = 3.0     # sampling weight of a preferred-category item



@dataclass(frozen=True)
class Scale:
    """Input sizes and round make-up of every workload."""

    serve_world: WorldSpec
    train_world: WorldSpec
    ckpt_requests: int         # training requests behind the serving model
    serve_requests: int        # seeded ragged requests
    serve_sizes: tuple         # (smallest, largest) pool
    short_sizes: tuple         # constant requests below the 2k+1 floor
    serve_K: int
    long_requests: int
    long_n: int
    long_K: int
    long_rank_passes: int      # fused_rank passes per serve-long round
    long_label_every: int      # mmr_select on every n-th serve-long request
    train_n: int               # candidates per training request
    train_requests: int
    val_requests: int
    held_requests: int
    joint_epochs: int
    K_teacher: int
    gamma: float = 0.1
    groups: int = 5            # serving/evaluation groups of a round
    setup_reps: int = 5        # at least this many set-ups in a run,
    setup_seconds: float = 4.0  # lasting at least this long together
    p90_samples: int = 100     # ten samples beyond the 90th percentile
    auc_floor: float = 0.55    # held-out AUC must exceed 0.5 by 0.05


FULL = Scale(
    # every serve-long request holds 10 000 distinct catalog items
    serve_world=WorldSpec(catalog_size=12000, num_users=100),
    # the package's default synthetic catalog size
    train_world=WorldSpec(catalog_size=2000, num_users=100),
    ckpt_requests=120,
    serve_requests=600, serve_sizes=(50, 300),
    short_sizes=(2, 5, 8, 11, 14, 16), serve_K=20,
    # one round ranks 20 distinct requests 5 times: 100 calls, enough for
    # a 90th percentile; the quadratic teacher (about 1 s a call) labels 5
    long_requests=20, long_n=10000, long_K=100, long_rank_passes=5,
    long_label_every=4,
    # a round trains once (about 2 s), then serves and evaluates the 200
    # held-out requests in 5 groups: several rounds fit in a run
    train_n=200, train_requests=60, val_requests=24, held_requests=200,
    joint_epochs=2, K_teacher=40)

TINY = Scale(
    serve_world=WorldSpec(catalog_size=600, num_users=12),
    train_world=WorldSpec(catalog_size=300, num_users=12),
    ckpt_requests=12,
    serve_requests=24, serve_sizes=(20, 60),
    short_sizes=(3, 16), serve_K=20,
    long_requests=4, long_n=500, long_K=30, long_rank_passes=2,
    long_label_every=2,
    train_n=60, train_requests=24, val_requests=6, held_requests=12,
    joint_epochs=1, K_teacher=12, groups=2, setup_reps=1, setup_seconds=0.0,
    p90_samples=10,
    auc_floor=0.5)


class World:
    def __init__(self, spec: WorldSpec):
        self.spec = spec
        rng = np.random.default_rng([WORLD_SEED, spec.catalog_size])
        centers = _unit(rng.standard_normal((spec.num_categories,
                                             spec.latent_dim)))
        self.item_cat = rng.integers(0, spec.num_categories,
                                     size=spec.catalog_size)
        self.item_lat = _unit(centers[self.item_cat] + spec.cluster_noise
                              * rng.standard_normal((spec.catalog_size,
                                                     spec.latent_dim)))
        self.user_lat = np.empty((spec.num_users, spec.latent_dim))
        self.user_pref = np.zeros((spec.num_users, spec.num_categories),
                                  dtype=bool)
        for u in range(spec.num_users):
            cats = rng.choice(spec.num_categories,
                              size=int(rng.integers(1, 4)), replace=False)
            self.user_pref[u, cats] = True
            self.user_lat[u] = _unit(centers[cats].sum(axis=0) + 0.25
                                     * rng.standard_normal(spec.latent_dim))

    def request(self, rng, request_id, user, items):
        """One JSON-ready request over the given distinct catalog rows."""
        n = len(items)
        shown = np.zeros(n, dtype=bool)
        shown[rng.choice(n, size=math.ceil(SHOW_FRACTION * n),
                         replace=False)] = True
        logits = self.spec.preference * (self.item_lat[items]
                                         @ self.user_lat[user])
        clicks = rng.random(n) < 1.0 / (1.0 + np.exp(-logits))
        cands = []
        for j, i in enumerate(items.tolist()):
            c = {"item_id": f"i{i}", "category": f"c{self.item_cat[i]}"}
            if shown[j]:
                c["label"] = int(clicks[j])
            cands.append(c)
        return {"request_id": request_id, "user_id": f"u{user}",
                "candidates": cands}

    def draw_items(self, rng, user, n):
        """n distinct items, preferred categories oversampled (weighted
        sampling without replacement by Gumbel top-n)."""
        w = np.where(self.user_pref[user][self.item_cat],
                     self.spec.pref_weight, 1.0)
        keys = np.log(w) - np.log(-np.log(rng.random(len(w))))
        if n == len(w):
            return np.argsort(-keys)
        return np.argpartition(-keys, n - 1)[:n]


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def stratified_sizes(rng, count, low, high):
    """count pool sizes covering [low, high] evenly (one per stratum), in
    seeded order: every seed serves the same spread of work."""
    sizes = low + np.floor((np.arange(count) + rng.random(count))
                           * (high - low + 1) / count).astype(np.int64)
    return rng.permutation(sizes)


def seeded_requests(world, seed, sizes, tag):
    rng = np.random.default_rng([seed, WORLD_SEED])
    out = []
    for r, n in enumerate(sizes):
        user = int(rng.integers(world.spec.num_users))
        out.append(world.request(rng, f"{tag}{seed}-{r}", user,
                                 world.draw_items(rng, user, int(n))))
    return out


def short_requests(world, sizes):
    """Requests below the student's 2k+1 = 17 floor; constant, not seeded."""
    rng = np.random.default_rng(SHORT_SEED)
    return [world.request(rng, f"{SHORT_TAG}{r}", r % world.spec.num_users,
                          world.draw_items(rng, r % world.spec.num_users, n))
            for r, n in enumerate(sizes)]


def write_jsonl(requests, path):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for req in requests:
            fh.write(json.dumps(req, separators=(",", ":")) + "\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# serving checkpoint


def checkpoint_training_requests(world, count):
    """Training requests of 200 candidates whose first requests partition
    the catalog and whose users cycle through every user, so the model's
    vocabulary covers every item and user a serving request can name."""
    rng = np.random.default_rng([CKPT_SEED, WORLD_SEED])
    spec = world.spec
    parts = np.array_split(rng.permutation(spec.catalog_size),
                           spec.catalog_size // 200)
    users = np.resize(rng.permutation(spec.num_users), count)
    out = []
    for r in range(count):
        items = parts[r] if r < len(parts) \
            else world.draw_items(rng, int(users[r]), 200)
        out.append(world.request(rng, f"ckpt-{r}", int(users[r]), items))
    return out


CKPT_CONFIG = {"K_teacher": 40, "warm_epochs": 1, "joint_epochs": 1,
               "patience": 2, "seed": CKPT_SEED}


def serving_checkpoint(divrank, scale, work_dir):
    """Train the serving checkpoint once per package source and reuse it.

    The directory name carries a digest of the training recipe and of
    every source file of the package, so a change to training, to the
    checkpoint format or to the config defaults trains a new checkpoint.
    It is written under a temporary name and renamed into place, so an
    interrupted run never leaves a half-written model behind.
    """
    recipe = json.dumps({"world": scale.serve_world.__dict__,
                         "n": scale.ckpt_requests, "config": CKPT_CONFIG},
                        sort_keys=True)
    sha = hashlib.sha256(recipe.encode())
    src = os.path.dirname(os.path.abspath(divrank.__file__))
    for top, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                source = os.path.join(top, name)
                with open(source, "rb") as fh:
                    sha.update(os.path.relpath(source, src).encode() + b"\0"
                               + fh.read())
    digest = sha.hexdigest()[:12]
    path = os.path.join(work_dir, f"serving-ckpt-{digest}")
    if os.path.isfile(os.path.join(path, "weights.bin")):
        return path
    world = World(scale.serve_world)
    data_path = f"{path}.jsonl"
    write_jsonl(checkpoint_training_requests(world, scale.ckpt_requests),
                data_path)
    dataset = divrank.data.load_jsonl(data_path)
    model, _ = divrank.distill.train(
        dataset, divrank.backbone.TrainConfig(**CKPT_CONFIG))
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    divrank.distill.save_checkpoint(model, tmp)
    try:
        os.replace(tmp, path)
    except OSError:
        # another run finished the same checkpoint first
        if not os.path.isfile(os.path.join(path, "weights.bin")):
            raise
        shutil.rmtree(tmp)
    os.remove(data_path)
    return path


# ---------------------------------------------------------------------------
# per-workload inputs


def make_inputs(divrank, workload, seed, scale, work_dir):
    """Write the workload's request file; return the paths a run needs."""
    os.makedirs(work_dir, exist_ok=True)
    data = os.path.join(work_dir, f"{workload}-{seed}.jsonl")
    out = {"data": data}
    if workload == "serve":
        world = World(scale.serve_world)
        rng = np.random.default_rng([seed, scale.serve_requests])
        sizes = stratified_sizes(rng, scale.serve_requests,
                                 *scale.serve_sizes)
        reqs = seeded_requests(world, seed, sizes, "s")
        # the constant short requests sit at fixed, evenly spaced slots
        step = len(reqs) // len(scale.short_sizes)
        for j, short in enumerate(short_requests(world, scale.short_sizes)):
            reqs.insert(j * (step + 1) + step // 2, short)
        write_jsonl(reqs, data)
    elif workload == "serve-long":
        world = World(scale.serve_world)
        write_jsonl(seeded_requests(world, seed, [scale.long_n]
                                    * scale.long_requests, "l"), data)
    elif workload == "train":
        world = World(scale.train_world)
        total = scale.train_requests + scale.val_requests + scale.held_requests
        write_jsonl(seeded_requests(world, seed, [scale.train_n] * total,
                                    "t"), data)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != "train":
        out["checkpoint"] = serving_checkpoint(divrank, scale, work_dir)
    return out


def main(argv):
    """Child-process entry: make inputs, print their paths as JSON.

    Generating inputs (and, once, training the serving checkpoint) in a
    separate process keeps their memory out of the measured peak RSS.
    """
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--src", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    import divrank.backbone
    import divrank.data
    import divrank.distill

    paths = make_inputs(divrank, args.workload, args.seed, FULL, args.work)
    print(json.dumps(paths))


if __name__ == "__main__":
    main(sys.argv[1:])
