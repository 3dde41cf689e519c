"""Command-line entry point.

Subcommands: ``gen`` (write a synthetic dataset), ``train`` (single run),
``eval`` (score a checkpoint on a dataset), ``sweep`` (grid of runs).
Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import Hyperparams, SplitSpec, build_params, read_config_file
from .data import generate_mixture, load_embeddings, write_dataset
from .errors import ValidationError
from .evaluation import evaluate
from .harness import (
    DEFAULT_DROP_PROB,
    DEFAULT_NOISE_SIGMA,
    DEFAULT_SEP,
    METRICS_HEADER,
    ExperimentPlan,
    metrics_row,
    sweep,
    train_one,
    write_csv,
    write_train_log,
)
from .model import load_checkpoint, save_checkpoint
from .rng import derive_stream


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as exit code 1 instead of 2."""

    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ltgcd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")

    p_gen = sub.add_parser("gen", help="write a synthetic dataset (CSV + manifest)")
    add_common(p_gen)
    p_gen.add_argument("--rho", type=float)
    p_gen.add_argument("--sep", type=float, default=DEFAULT_SEP)

    p_train = sub.add_parser("train", help="train one model and evaluate it")
    add_common(p_train)
    p_train.add_argument("--dataset", help="dataset manifest; generated when omitted")
    p_train.add_argument("--rho", type=float)
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--beta", type=float)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--batch", type=int)
    p_train.add_argument("--sep", type=float, default=DEFAULT_SEP)
    p_train.add_argument("--noise-sigma", type=float, default=DEFAULT_NOISE_SIGMA)
    p_train.add_argument("--drop-prob", type=float, default=DEFAULT_DROP_PROB)

    p_eval = sub.add_parser("eval", help="metrics for a checkpoint on a dataset")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--rho", type=float)
    p_eval.add_argument("--alpha", type=float)
    p_eval.add_argument("--beta", type=float)

    p_sweep = sub.add_parser("sweep", help="run a rho/alpha/beta/seed grid")
    add_common(p_sweep)
    p_sweep.add_argument("--rho", help="comma-separated rho values")
    p_sweep.add_argument("--alpha", help="comma-separated alpha values")
    p_sweep.add_argument("--beta", help="comma-separated beta values")
    p_sweep.add_argument("--seeds", help="comma-separated seeds (default 0,1,2)")
    p_sweep.add_argument("--epochs", type=int)
    p_sweep.add_argument("--batch", type=int)
    p_sweep.add_argument("--sep", type=float, default=DEFAULT_SEP)
    p_sweep.add_argument("--noise-sigma", type=float, default=DEFAULT_NOISE_SIGMA)
    p_sweep.add_argument("--drop-prob", type=float, default=DEFAULT_DROP_PROB)
    p_sweep.add_argument("--workers", type=int, default=1)

    return parser


def _load_params(args) -> tuple[Hyperparams, SplitSpec]:
    values = read_config_file(args.config) if args.config else {}
    overrides = {
        "seed": getattr(args, "seed", None),
        "rho": getattr(args, "rho", None) if args.command != "sweep" else None,
        "alpha": getattr(args, "alpha", None) if args.command != "sweep" else None,
        "beta": getattr(args, "beta", None) if args.command != "sweep" else None,
        "epochs": getattr(args, "epochs", None),
        "batch_size": getattr(args, "batch", None),
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    return build_params(values)


def _parse_float_list(text: str | None, fallback: list[float], what: str) -> list[float]:
    if text is None:
        return fallback
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated numbers, got {text!r}")
    if not values:
        raise ValidationError(f"{what} list is empty")
    return values


def _require_out(args) -> Path:
    if not args.out:
        raise ValidationError(f"{args.command} requires --out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report_metrics(row: list[str], out: Path | None) -> None:
    """Print the metrics row under its header; also write metrics.csv to ``out``."""
    if out is not None:
        write_csv(out / "metrics.csv", METRICS_HEADER, [row])
    print(",".join(METRICS_HEADER))
    print(",".join(row))


def _cmd_gen(args) -> int:
    hp, split = _load_params(args)
    out = _require_out(args)
    data = generate_mixture(split, args.sep, derive_stream(hp.seed, "split"))
    manifest = write_dataset(data, out)
    print(f"wrote {manifest}")
    return 0


def _cmd_train(args) -> int:
    hp, split = _load_params(args)
    out = _require_out(args)
    if args.dataset:
        data = load_embeddings(args.dataset)
    else:
        data = generate_mixture(split, args.sep, derive_stream(hp.seed, "split"))

    record = train_one(data, hp, noise_sigma=args.noise_sigma, drop_prob=args.drop_prob)
    (out / "run_config.json").write_text(json.dumps(record.config, indent=2) + "\n")
    write_train_log(out / "train_log.csv", record)
    if record.status != "ok":
        print(f"training failed: {record.error}", file=sys.stderr)
        return 2
    save_checkpoint(out / "checkpoint.json", record.head, record.protos)
    _report_metrics(metrics_row(record.metrics, split.rho, hp.alpha, hp.beta), out)
    return 0


def _cmd_eval(args) -> int:
    hp, split = _load_params(args)
    head, _protos = load_checkpoint(args.checkpoint)
    data = load_embeddings(args.dataset)
    if head.in_dim != data.dim:
        raise ValidationError(
            f"checkpoint {args.checkpoint} takes d={head.in_dim} inputs, "
            f"but dataset {args.dataset} has d={data.dim}"
        )
    report = evaluate(head, data, hp.seed)
    _report_metrics(
        metrics_row(report, split.rho, hp.alpha, hp.beta),
        _require_out(args) if args.out else None,
    )
    return 0


def _cmd_sweep(args) -> int:
    hp, split = _load_params(args)
    out = _require_out(args)
    seeds = _parse_float_list(args.seeds, [0, 1, 2], "--seeds")
    if not all(float(s).is_integer() for s in seeds):
        raise ValidationError(f"--seeds must be integers, got {args.seeds!r}")
    plan = ExperimentPlan(
        hp=hp,
        split=split,
        rhos=tuple(_parse_float_list(args.rho, [split.rho], "--rho")),
        alphas=tuple(_parse_float_list(args.alpha, [hp.alpha], "--alpha")),
        betas=tuple(_parse_float_list(args.beta, [hp.beta], "--beta")),
        seeds=tuple(int(s) for s in seeds),
        out_dir=out,
        sep=args.sep,
        noise_sigma=args.noise_sigma,
        drop_prob=args.drop_prob,
        workers=args.workers,
    )
    artifacts = sweep(plan)
    for name, path in artifacts.items():
        print(f"{name}: {path}")
    if "failures" in artifacts:
        print(f"ltgcd: error: runs failed, see {artifacts['failures']}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {"gen": _cmd_gen, "train": _cmd_train, "eval": _cmd_eval, "sweep": _cmd_sweep}


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"ltgcd: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"ltgcd: invalid input: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: IO, malformed data, divergence
        print(f"ltgcd: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
