"""Command line entry points: gen-data, train, evaluate, rank and bench.

Thread pinning happens before any numeric module is imported, so the
subcommand handlers import the rest of the package lazily.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from datetime import datetime, timezone


def _pin_threads(argv):
    n = os.environ.get("DIVRANK_THREADS", "1")
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif arg.startswith("--threads="):
            n = arg.split("=", 1)[1]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_json(path, payload):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _emit(payload, out_path=None):
    if out_path:
        _atomic_json(out_path, payload)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _fail(exc, code=2):
    json.dump({"error": type(exc).__name__, "message": str(exc)},
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


def cmd_gen_data(args):
    from .data import SyntheticSpec, generate_synthetic, save_jsonl

    started = _utc_now()
    if os.path.exists(args.out) and not args.force:
        raise FileExistsError(
            f"{args.out} exists; pass --force to overwrite")
    spec = SyntheticSpec(
        seed=args.seed, num_users=args.num_users,
        num_requests=args.num_requests, catalog_size=args.catalog_size,
        num_categories=args.num_categories,
        candidates_per_request=args.candidates_per_request,
        latent_dim=args.latent_dim, show_fraction=args.show_fraction)
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


def _resolve_config(args):
    from .backbone import TrainConfig

    base = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
    overrides = {
        "seed": args.seed, "d": args.d, "lr": args.lr,
        "batch_size": args.batch_size, "lam": args.lam, "gamma": args.gamma,
        "k": args.k, "K_teacher": args.K_teacher,
        "warm_epochs": args.warm_epochs, "joint_epochs": args.joint_epochs,
        "eval_fraction": args.eval_fraction, "patience": args.patience,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    return TrainConfig.from_dict(base)


def cmd_train(args):
    from .data import load_jsonl
    from .distill import save_checkpoint, train

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
    from .data import load_jsonl
    from .distill import load_checkpoint
    from .evaluation import evaluate_model

    started = _utc_now()
    model = load_checkpoint(args.checkpoint)
    dataset = load_jsonl(args.data)
    Ks = [int(v) for v in args.ks.split(",")]
    gammas = [float(v) for v in args.gammas.split(",")]
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
    from .data import load_jsonl
    from .distill import load_checkpoint
    from .evaluation import fused_rank

    model = load_checkpoint(args.checkpoint)
    dataset = load_jsonl(args.data)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for request in dataset.requests:
            ranked = fused_rank(model, request, args.K, args.gamma)
            json.dump({"request_id": ranked.request_id,
                       "items": ranked.item_ids,
                       "scores": [float(s) for s in ranked.scores]}, out)
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_bench(args):
    from .distill import load_checkpoint
    from .evaluation import latency_bench

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
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS/OpenMP thread cap (default: "
                             "DIVRANK_THREADS or 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic JSONL dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-users", type=int, default=200)
    p.add_argument("--num-requests", type=int, default=2400)
    p.add_argument("--catalog-size", type=int, default=2000)
    p.add_argument("--num-categories", type=int, default=8)
    p.add_argument("--candidates-per-request", type=int, default=200)
    p.add_argument("--latent-dim", type=int, default=16)
    p.add_argument("--show-fraction", type=float, default=0.15)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a student model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file of training options")
    p.add_argument("--seed", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--K-teacher", type=int)
    p.add_argument("--warm-epochs", type=int)
    p.add_argument("--joint-epochs", type=int)
    p.add_argument("--eval-fraction", type=float)
    p.add_argument("--patience", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics over a labelled dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ks", default="5,10,20")
    p.add_argument("--gammas", default="0.0,0.1")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="rank request candidates to JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--K", type=int, default=20)
    p.add_argument("--gamma", type=float, default=0.1)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_threads(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(exc, code=2)
    except Exception as exc:  # noqa: BLE001  keep stderr machine-readable
        return _fail(exc, code=1)


if __name__ == "__main__":
    sys.exit(main())
