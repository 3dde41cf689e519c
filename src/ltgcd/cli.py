"""Command-line entry point.

Subcommands: ``gen`` (write a synthetic dataset), ``train`` (single run),
``eval`` (score a checkpoint on a dataset), ``sweep`` (grid of runs).
Exit codes: 0 success, 1 validation/usage error, 2 runtime failure,
130 interrupted (^C).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import CONFIG_KEYS, Hyperparams, SplitSpec, build_params, read_config_file
from .data import generate_mixture, load_embeddings, write_csv, write_dataset
from .errors import ValidationError
from .evaluation import evaluate
from .harness import (
    DEFAULT_SEP,
    METRICS_HEADER,
    ExperimentPlan,
    metrics_row,
    sweep,
    train_one,
    write_train_log,
)
from .model import load_checkpoint, save_checkpoint
from .rng import derive_stream


def _list_of(kind):
    """argparse ``type=`` for a comma-separated, non-empty list of ``kind``."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(kind(v) for v in text.split(",") if v.strip() != "")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be comma-separated {kind.__name__} values, got {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError("list is empty")
        return values
    return parse


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name.

    Every override flag stores under its config key, so ``_load_params``
    picks them out by name; the sweep lists store under the plan fields.
    """
    parser = argparse.ArgumentParser(prog="ltgcd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = sub.add_parser("gen", help="write a synthetic dataset npz")
    p_train = sub.add_parser("train", help="train one model and evaluate it")
    p_eval = sub.add_parser("eval", help="metrics for a checkpoint on a dataset")
    # no abbreviations: "--seed" would otherwise be read as "--seeds"
    p_sweep = sub.add_parser("sweep", help="run a rho/alpha/beta/seed grid",
                             allow_abbrev=False)

    for p in (p_gen, p_train, p_eval, p_sweep):
        p.add_argument("--config", help="flat key=value config file")
        # eval prints its metrics and writes them only if given an --out
        p.add_argument("--out", type=Path, required=p is not p_eval, help="output directory")
    for p in (p_gen, p_train, p_eval):
        p.add_argument("--seed", type=int)
    for p in (p_gen, p_train, p_sweep):
        p.add_argument("--sep", type=float, default=DEFAULT_SEP)
    for p in (p_train, p_sweep):
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch", dest="batch_size", type=int)
        p.add_argument("--noise-sigma", type=float)
        p.add_argument("--drop-prob", type=float)

    p_gen.add_argument("--rho", type=float)
    p_train.add_argument("--dataset", help="dataset npz; generated when omitted")
    p_train.set_defaults(sep=None)   # unset, so a --sep beside --dataset shows
    for key in ("rho", "alpha", "beta"):
        p_train.add_argument(f"--{key}", type=float)
        p_sweep.add_argument(f"--{key}", dest=f"{key}s", type=_list_of(float),
                             help=f"comma-separated {key} values")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_sweep.add_argument("--seeds", type=_list_of(int), default=(0, 1, 2),
                         help="comma-separated seeds (default 0,1,2)")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (default 1): the cells, ordered by rho and "
                              "seed, are cut into that many chunks, and each (rho, seed)'s "
                              "cells in a chunk train in one loop")

    return parser, sub.choices


def _load_params(args) -> tuple[Hyperparams, SplitSpec]:
    """Config file values, then every flag that names a config key."""
    values = read_config_file(args.config) if args.config else {}
    values.update({k: v for k, v in vars(args).items()
                   if v is not None and k in CONFIG_KEYS})
    return build_params(values)


def _report_metrics(row: list[str], out: Path | None) -> None:
    """Print the metrics row under its header; also write metrics.csv to ``out``."""
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "metrics.csv", METRICS_HEADER, [row])
    print(",".join(METRICS_HEADER))
    print(",".join(row))


def _cmd_gen(args) -> int:
    hp, split = _load_params(args)
    data = generate_mixture(split, args.sep, derive_stream(hp.seed, "split"))
    print(f"wrote {write_dataset(data, args.out)}")
    return 0


def _cmd_train(args) -> int:
    hp, split = _load_params(args)
    if args.dataset:
        data = load_embeddings(args.dataset)
    else:
        sep = DEFAULT_SEP if args.sep is None else args.sep
        data = generate_mixture(split, sep, derive_stream(hp.seed, "split"))

    try:
        record = train_one(data, hp)
    except ValidationError as exc:   # only a loaded dataset breaks train_one's rules
        raise ValidationError(f"{args.dataset}: {exc}") from None
    args.out.mkdir(parents=True, exist_ok=True)
    # an earlier run's model and metrics would pass for this run's if this
    # run, or a write below, fails
    for stale in ("checkpoint.npz", "metrics.csv"):
        (args.out / stale).unlink(missing_ok=True)
    (args.out / "run_config.json").write_text(json.dumps(record.config, indent=2) + "\n")
    write_train_log(args.out / "train_log.csv", record)
    if record.status != "ok":
        print(f"training failed: {record.error}", file=sys.stderr)
        return 2
    save_checkpoint(args.out / "checkpoint.npz", record.head, record.protos)
    # a loaded dataset does not record the rho it was made with
    rho = None if args.dataset else split.rho
    _report_metrics(metrics_row(record.metrics, rho, hp.alpha, hp.beta), args.out)
    return 0


def _cmd_eval(args) -> int:
    hp, _split = _load_params(args)
    head, _protos = load_checkpoint(args.checkpoint)
    data = load_embeddings(args.dataset)
    if head.in_dim != data.dim:
        raise ValidationError(
            f"checkpoint {args.checkpoint} takes d={head.in_dim} inputs, "
            f"but dataset {args.dataset} has d={data.dim}"
        )
    # the checkpoint does not record its training settings: no rho/alpha/beta
    report = evaluate(head, data, hp.seed)
    _report_metrics(metrics_row(report, None, None, None), args.out)
    return 0


def _cmd_sweep(args) -> int:
    hp, split = _load_params(args)
    plan = ExperimentPlan(
        hp=hp,
        split=split,
        rhos=args.rhos or (split.rho,),
        alphas=args.alphas or (hp.alpha,),
        betas=args.betas or (hp.beta,),
        seeds=args.seeds,
        out_dir=args.out,   # sweep creates it, once the plan is valid
        sep=args.sep,
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
    parser, subparsers = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            subparsers[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
        # the split flags shape a generated split only
        for flag in ("rho", "sep"):
            if args.command == "train" and args.dataset and getattr(args, flag) is not None:
                subparsers["train"].error(f"argument --{flag}: not allowed with argument --dataset")
    except SystemExit as exc:   # argparse has printed the usage or help
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"ltgcd: invalid input: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: IO, malformed data, divergence
        print(f"ltgcd: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:   # the group has reaped its helper, a sweep its workers
        print("ltgcd: interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
