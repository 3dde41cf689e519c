"""Seeded fuzzing of the npz readers: random 1-3 byte edits of a valid dataset
and of a valid checkpoint either load cleanly or fail with a
``DataFormatError`` that names the file or the manifest, with every warning
an error. A failure names its seed and case, so it reproduces."""

import warnings

import numpy as np
import pytest

from ltgcd.config import SplitSpec
from ltgcd.data import generate_mixture, load_embeddings, write_dataset
from ltgcd.errors import DataFormatError
from ltgcd.model import Prototypes, init_head, load_checkpoint, save_checkpoint
from ltgcd.rng import derive_stream
from support import unit_rows

CASES = 2000


def edited(good: bytes, rng: np.random.Generator) -> bytes:
    """``good`` after 1-3 edits, each one byte overwritten, inserted or
    deleted at a random place."""
    data = bytearray(good)
    for _ in range(rng.integers(1, 4)):
        pos, byte = int(rng.integers(len(data))), int(rng.integers(256))
        kind = rng.integers(3)
        if kind == 0:
            data[pos] = byte
        elif kind == 1:
            data.insert(pos, byte)
        else:
            del data[pos]
    return bytes(data)


def fuzz(path, load, named, seed):
    """Load ``CASES`` seeded edits of the file at ``path``; each must load or
    raise a ``DataFormatError`` that starts with one of the paths ``named``."""
    good = path.read_bytes()
    rng = np.random.default_rng(seed)
    outcomes = {"loaded": 0, "rejected": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in range(CASES):
            path.write_bytes(edited(good, rng))
            try:
                load()
                outcomes["loaded"] += 1
            except DataFormatError as exc:
                assert str(exc).startswith(tuple(f"{p}: " for p in named)), \
                    f"seed {seed}, case {case}: {exc}"
                outcomes["rejected"] += 1
            except Exception as exc:
                pytest.fail(f"seed {seed}, case {case}: {type(exc).__name__}: {exc}")
    return outcomes


def test_edited_dataset_npz(tmp_path):
    spec = SplitSpec(num_classes=3, num_known=2, samples_per_known=12, rho=2.0, dim=3)
    manifest = write_dataset(generate_mixture(spec, 5.0, derive_stream(0, "split")), tmp_path)
    assert load_embeddings(manifest).points.shape == (30, 3)
    npz = tmp_path / "data.npz"
    outcomes = fuzz(npz, lambda: load_embeddings(manifest), (npz, manifest), seed=22)
    assert outcomes["rejected"] > CASES // 2


def test_edited_checkpoint_npz(tmp_path):
    rng = derive_stream(0, "test")
    ckpt = tmp_path / "c.npz"
    save_checkpoint(ckpt, init_head(3, 4, 2, rng), Prototypes(M=unit_rows(rng, 3, 2)))
    outcomes = fuzz(ckpt, lambda: load_checkpoint(ckpt), (ckpt,), seed=23)
    assert outcomes["rejected"] > CASES // 2
