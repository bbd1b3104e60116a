"""Command line entry points: gen-data, train, evaluate, rank and bench."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
from datetime import datetime, timezone

from .backbone import TrainConfig
from .data import SyntheticSpec, generate_synthetic, load_jsonl, save_jsonl
from .distill import load_checkpoint, save_checkpoint, train
from .evaluation import evaluate_model, fused_rank, latency_bench


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def _atomic_open(path):
    """Write to a temporary sibling of path and move it into place only
    when the block succeeds; on failure path is left as it was. The
    temporary name carries the pid, so concurrent runs writing one path
    never share it."""
    parent, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(parent, f".{name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _atomic_json(path, payload):
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _emit(payload, out_path=None):
    if out_path:
        _atomic_json(out_path, payload)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _fail(exc, code=2):
    # str() of a KeyError is the repr of its argument, quotes and all
    message = (str(exc.args[0]) if isinstance(exc, KeyError) and exc.args
               else str(exc))
    json.dump({"error": type(exc).__name__, "message": message},
              sys.stderr, indent=2)
    sys.stderr.write("\n")
    return code


def _run_manifest(command, args_dict, inputs, outputs, config=None,
                  started=None, extra=None):
    arguments = {k: v for k, v in args_dict.items()
                 if k != "func" and not callable(v)}
    manifest = {
        "command": command,
        "arguments": arguments,
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs],
        "outputs": outputs,
        "started": started,
        "finished": _utc_now(),
    }
    if config is not None:
        manifest["config"] = config
    if extra:
        manifest.update(extra)
    return manifest


# ---------------------------------------------------------------------------
# subcommands


# the SyntheticSpec fields gen-data sets, each from the flag of that name
GEN_FLAGS = ("seed", "num_users", "num_requests", "catalog_size",
             "num_categories", "candidates_per_request", "latent_dim",
             "show_fraction")


def cmd_gen_data(args):
    started = _utc_now()
    if os.path.exists(args.out) and not args.force:
        raise FileExistsError(
            f"{args.out} exists; pass --force to overwrite")
    spec = SyntheticSpec(**{key: getattr(args, key) for key in GEN_FLAGS})
    dataset = generate_synthetic(spec)
    save_jsonl(dataset, args.out)
    manifest = _run_manifest(
        "gen-data", vars(args), inputs=[], outputs=[args.out],
        config=spec.__dict__, started=started,
        extra={"num_requests": len(dataset.requests),
               "num_items": len(dataset.items)})
    _atomic_json(f"{args.out}.manifest.json", manifest)
    print(f"wrote {len(dataset.requests)} requests to {args.out}")
    return 0


# the TrainConfig fields train sets, each from the flag of that name
TRAIN_FLAGS = ("seed", "d", "lr", "batch_size", "lam", "gamma", "k",
               "K_teacher", "warm_epochs", "joint_epochs", "eval_fraction",
               "patience")


def _resolve_config(args):
    """The --config file's fields, each overridden by its flag if given."""
    base = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
    flags = {key: getattr(args, key) for key in TRAIN_FLAGS
             if getattr(args, key) is not None}
    return TrainConfig.from_dict({**base, **flags}
                                 if isinstance(base, dict) else base)


def cmd_train(args):
    started = _utc_now()
    config = _resolve_config(args)
    dataset = load_jsonl(args.data)
    model, history = train(dataset, config)
    save_checkpoint(model, args.out, history)
    manifest = _run_manifest(
        "train", vars(args), inputs=[args.data], outputs=[args.out],
        config=config.to_dict(), started=started,
        extra={"epochs_run": len(history),
               "final": history[-1] if history else None,
               # ru_maxrss is in KiB on Linux
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    _atomic_json(os.path.join(args.out, "run_manifest.json"), manifest)
    print(f"checkpoint written to {args.out} ({len(history)} epochs)")
    return 0


def cmd_evaluate(args):
    started = _utc_now()
    model = load_checkpoint(args.checkpoint)
    dataset = load_jsonl(args.data)
    Ks = [int(v) for v in args.ks.split(",")]
    gammas = ([float(v) for v in args.gammas.split(",")] if args.gammas
              else sorted({0.0, model.config.gamma}))
    reports = evaluate_model(model, dataset, Ks, gammas)
    payload = {
        "reports": [r.to_dict() for r in reports],
        "manifest": _run_manifest(
            "evaluate", vars(args), inputs=[args.data],
            outputs=[args.out] if args.out else [],
            config=model.config.to_dict(), started=started),
    }
    _emit(payload, args.out)
    return 0


def cmd_rank(args):
    model = load_checkpoint(args.checkpoint)
    gamma = model.config.gamma if args.gamma is None else args.gamma
    dataset = load_jsonl(args.data)
    with (_atomic_open(args.out) if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        for request in dataset.requests:
            ranked = fused_rank(model, request, args.K, gamma)
            json.dump({"request_id": ranked.request_id,
                       "items": ranked.item_ids,
                       "scores": [float(s) for s in ranked.scores]}, out)
            out.write("\n")
    return 0


def cmd_bench(args):
    started = _utc_now()
    model = load_checkpoint(args.checkpoint)
    result = latency_bench(model, N=args.N, K=args.K, repeats=args.repeats,
                           seed=args.seed)
    result["manifest"] = _run_manifest(
        "bench", vars(args), inputs=[], outputs=[args.out] if args.out else [],
        started=started)
    _emit(result, args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divrank",
        description="diversified ranking: teacher distillation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic JSONL dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    for key in GEN_FLAGS:
        default = SyntheticSpec.__dataclass_fields__[key].default
        p.add_argument("--" + key.replace("_", "-"), type=type(default),
                       default=default)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a student model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file of training options")
    for key in TRAIN_FLAGS:
        p.add_argument("--" + key.replace("_", "-"),
                       type=TrainConfig.field_type(key))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics over a labelled dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ks", default="5,10,20")
    p.add_argument("--gammas",
                   help="comma-separated fusion weights (default: 0 and "
                        "the checkpoint's gamma)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="rank request candidates to JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--K", type=int, default=20)
    p.add_argument("--gamma", type=float,
                   help="fusion weight (default: the checkpoint's gamma)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("bench", help="teacher vs student latency")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--N", type=int, default=10000)
    p.add_argument("--K", type=int, default=100)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(exc, code=2)
    except Exception as exc:  # noqa: BLE001  keep stderr machine-readable
        return _fail(exc, code=1)


if __name__ == "__main__":
    sys.exit(main())
