"""Fingerprint every output the package writes, to show a change kept its bytes.

Prints one ``<output> <sha256>`` line per output of a fixed set of runs:

- seven sweeps: the criterion-8 plan, a rho x alpha x beta grid, a plan whose
  known rows are all labeled (so Known is absent), a plan whose every run
  steps no batch, one whose every run diverges, and a 3-beta x 2-seed plan on
  2 and on 3 worker processes; each sweep file is one output, and a sweep
  that raises is one ``raised`` line hashing ``Type: message``;
- the desk CLI: ``ltgcd gen``, ``ltgcd train --seed 0`` and ``ltgcd eval`` at
  ``configs/desk.ini``, every file they write plus what they print; ``eval``
  scores the ``checkpoint.npz`` that ``train`` wrote on the ``data.npz`` that
  ``gen`` wrote;
- desk ``train_one`` at seeds 0-7: the ``MetricsReport``, the head and
  prototype bytes and the epoch logs of each run, each log's fields sorted
  by name so that their declaration order does not matter;
- a dataset at the benchmark's embedding shape (4,500 x 256, 100 classes,
  seed 0): the ``data.npz`` that ``write_dataset`` writes and the arrays
  ``load_embeddings`` reads back;
- ``evaluate`` at that shape for seeds 0-7, as the benchmark's embed_score
  runs it (an untrained 256-64-32 head): the ``MetricsReport`` of each seed,
  which rests on a 50 x 50 optimal assignment;
- a fixed set of usage errors: the exit code and what ``ltgcd`` prints to
  standard error (``COLUMNS`` is pinned, since argparse wraps the usage line
  to the terminal width).

``--root`` picks the checkout whose ``src/ltgcd`` and ``configs/desk.ini``
are used (default: this one), so a checkout that predates this script can be
fingerprinted too. To check that a change leaves every output byte-identical
to its parent:

    python3 scripts/fingerprint.py > change.txt
    python3 scripts/fingerprint.py --root <parent checkout> > parent.txt
    diff parent.txt change.txt

BLAS runs one thread unless the caller sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``. Pinned, on 2 or more CPUs the
1-worker sweeps and the desk runs train beside the forked helper process,
and the 2- and 3-worker sweeps train in pool workers, which never fork it:
one diff covers both routes. Each plan names its worker count, so the
routes do not follow the host's CPU count. It takes about 15 seconds on one
core. To check the arithmetic of training in one process on more BLAS
threads too, as ``ltgcd train`` does when the caller sets that count, make
the two listings again unpinned, on a 2-CPU host with:

    OPENBLAS_NUM_THREADS=2 python3 scripts/fingerprint.py
"""

from __future__ import annotations

import os

# Pinned before numpy loads, unless the caller pins otherwise, so both
# checkouts run their BLAS the same way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ["COLUMNS"] = "80"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

DESK_SEEDS = tuple(range(8))
EMBED_SEEDS = tuple(range(8))
# (name, split overrides, hyperparameter overrides, plan axes and workers)
PLANS = (
    ("criterion8", {}, {},
     {"rhos": (3.0,), "alphas": (1.0,), "betas": (0.0, 2.0), "seeds": (0, 1), "workers": 1}),
    ("grid", {}, {},
     {"rhos": (2.0, 3.0), "alphas": (0.0, 1.0), "betas": (0.0, 2.0), "seeds": (0,), "workers": 1}),
    ("absent_known", {"samples_per_known": 2, "labeled_fraction": 0.9, "rho": 1.0}, {},
     {"rhos": (1.0,), "alphas": (1.0,), "betas": (0.0, 2.0), "seeds": (0, 1), "workers": 1}),
    # batch 1 never holds the 2 unlabeled rows a step needs
    ("all_failed", {}, {"batch_size": 1},
     {"rhos": (3.0,), "alphas": (1.0,), "betas": (0.0, 2.0), "seeds": (0,), "workers": 1}),
    ("diverged", {}, {"lr0": 1e100},
     {"rhos": (3.0,), "alphas": (1.0,), "betas": (0.0, 2.0), "seeds": (0, 1), "workers": 1}),
    # 6 cells on 2 and on 3 workers: chunks that hold whole seeds and that split one
    ("chunked_w2", {}, {},
     {"rhos": (3.0,), "alphas": (1.0,), "betas": (0.0, 1.0, 2.0), "seeds": (0, 1), "workers": 2}),
    ("chunked_w3", {}, {},
     {"rhos": (3.0,), "alphas": (1.0,), "betas": (0.0, 1.0, 2.0), "seeds": (0, 1), "workers": 3}),
)

USAGE_ERRORS = {
    "frobnicate": ["frobnicate"],
    "sweep_seed": ["sweep", "--seed", "99"],
    "train_epochs_x": ["train", "--epochs", "x"],
    "gen_no_out": ["gen"],
    "train_rho_dataset": ["train", "--rho", "3", "--dataset", "m.json"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def files(name: str, out_dir: Path) -> list[tuple[str, str]]:
    return [(f"{name}/{p.relative_to(out_dir).as_posix()}", sha256(p.read_bytes()))
            for p in sorted(out_dir.rglob("*")) if p.is_file()]


def sweeps(work: Path) -> list[tuple[str, str]]:
    from dataclasses import replace

    from ltgcd.config import Hyperparams, SplitSpec
    from ltgcd.harness import ExperimentPlan, sweep

    hp = Hyperparams(epochs=2, batch_size=64, seed=0)
    split = SplitSpec(num_classes=6, num_known=3, samples_per_known=60, rho=3.0, dim=16)
    lines = []
    for name, split_kw, hp_kw, axes in PLANS:
        out_dir = work / name
        try:
            sweep(ExperimentPlan(hp=replace(hp, **hp_kw), split=replace(split, **split_kw),
                                 out_dir=out_dir, **axes))
        except Exception as exc:
            raised = f"{type(exc).__name__}: {exc}"
            lines.append((f"sweep/{name}/raised", sha256(raised.encode())))
            continue
        lines += files(f"sweep/{name}", out_dir)
    return lines


def desk_cli(root: Path, work: Path) -> list[tuple[str, str]]:
    from ltgcd.cli import cli

    config = str(root / "configs" / "desk.ini")
    data, run = work / "data", work / "run"
    commands = {
        "gen": ["gen", "--config", config, "--out", str(data)],
        "train": ["train", "--config", config, "--seed", "0", "--out", str(run)],
        "eval": ["eval", "--config", config, "--checkpoint", str(run / "checkpoint.npz"),
                 "--dataset", str(data / "data.npz"), "--out", str(run / "eval")],
    }
    lines = []
    for name, argv in commands.items():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli(argv)
        lines.append((f"cli/{name}/exit={code}/stdout",
                      sha256(printed.getvalue().replace(str(work), "<work>").encode())))
    return lines + files("cli/gen", data) + files("cli/train", run)


def usage_errors() -> list[tuple[str, str]]:
    from ltgcd.cli import cli

    lines = []
    for name, argv in USAGE_ERRORS.items():
        printed = io.StringIO()
        with contextlib.redirect_stderr(printed):
            code = cli(argv)
        lines.append((f"usage/{name}/exit={code}/stderr", sha256(printed.getvalue().encode())))
    return lines


def desk_train_one(root: Path) -> list[tuple[str, str]]:
    from dataclasses import replace

    from ltgcd.config import build_params, read_config_file
    from ltgcd.data import generate_mixture
    from ltgcd.harness import train_one
    from ltgcd.rng import derive_stream

    hp, split = build_params(read_config_file(root / "configs" / "desk.ini"))
    lines = []
    for seed in DESK_SEEDS:
        data = generate_mixture(split, 5.0, derive_stream(seed, "split"))
        record = train_one(data, replace(hp, seed=seed))
        arrays = [*record.head.params().values(), record.protos.M]
        logs = [(sorted((k, v) for k, v in vars(log).items() if k != "prior_r"),
                 log.prior_r.tobytes()) for log in record.epoch_logs]
        lines += [
            (f"train_one/seed{seed}/status", sha256(repr((record.status, record.error)).encode())),
            (f"train_one/seed{seed}/metrics", sha256(repr(record.metrics).encode())),
            (f"train_one/seed{seed}/head", sha256(b"".join(a.tobytes() for a in arrays))),
            (f"train_one/seed{seed}/epoch_logs", sha256(repr(logs).encode())),
        ]
    return lines


def embed(work: Path) -> list[tuple[str, str]]:
    from ltgcd.config import SplitSpec
    from ltgcd.data import generate_mixture, load_embeddings, write_dataset
    from ltgcd.evaluation import evaluate
    from ltgcd.model import init_head
    from ltgcd.rng import derive_stream

    split = SplitSpec(num_classes=100, num_known=50, samples_per_known=75, rho=5.0, dim=256)
    written = write_dataset(generate_mixture(split, 5.0, derive_stream(0, "split")), work)
    loaded = load_embeddings(written)
    arrays = (loaded.points, loaded.labels, loaded.is_labeled)
    lines = [(f"embed/{written.name}", sha256(written.read_bytes())),
             ("embed/loaded", sha256(b"".join(a.tobytes() for a in arrays)))]
    for seed in EMBED_SEEDS:
        data = generate_mixture(split, 5.0, derive_stream(seed, "split"))
        head = init_head(split.dim, 64, 32, derive_stream(seed, "init"))
        lines.append((f"embed/evaluate/seed{seed}",
                      sha256(repr(evaluate(head, data, seed)).encode())))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to fingerprint (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        lines = (sweeps(work / "sweep") + desk_cli(root, work / "cli") + desk_train_one(root)
                 + usage_errors() + embed(work / "embed"))
    for name, digest in lines:
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
