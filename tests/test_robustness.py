"""Seeded fuzzing of the npz readers: random 1-3 byte edits of a valid dataset
and of a valid checkpoint either load cleanly or fail with a
``DataFormatError`` that names the file, with every warning an error. Edits
of the whole file mostly stop at the zip checksums, so the dataset is also
fuzzed one ``.npy`` member at a time inside a valid zip, which reaches
numpy's array header parser and the loader's own checks. A failure names its
seed and case, so it reproduces."""

import io
import warnings
import zipfile

import numpy as np
import pytest

from ltgcd.config import SplitSpec
from ltgcd.data import generate_mixture, load_embeddings, write_dataset
from ltgcd.errors import DataFormatError
from ltgcd.model import Prototypes, init_head, load_checkpoint, save_checkpoint
from ltgcd.rng import derive_stream
from support import replace_member, unit_rows

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


def in_zip_edited(good: bytes, rng: np.random.Generator) -> bytes:
    """The npz ``good`` with one member, picked at random, after 1-3 edits;
    the zip is written anew, so its checksums match the edited bytes."""
    with zipfile.ZipFile(io.BytesIO(good)) as archive:
        names = archive.namelist()
        picked = names[rng.integers(len(names))]
        return replace_member(good, picked, edited(archive.read(picked), rng))


def fuzz(path, load, seed, edit=edited, cases=CASES):
    """Load ``cases`` seeded ``edit``s of the file at ``path``; each must load
    or raise a ``DataFormatError`` that starts with ``path``."""
    good = path.read_bytes()
    rng = np.random.default_rng(seed)
    outcomes = {"loaded": 0, "rejected": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in range(cases):
            path.write_bytes(edit(good, rng))
            try:
                load()
                outcomes["loaded"] += 1
            except DataFormatError as exc:
                assert str(exc).startswith(f"{path}: "), f"seed {seed}, case {case}: {exc}"
                outcomes["rejected"] += 1
            except Exception as exc:
                pytest.fail(f"seed {seed}, case {case}: {type(exc).__name__}: {exc}")
    return outcomes


def small_dataset_npz(tmp_path):
    spec = SplitSpec(num_classes=3, num_known=2, samples_per_known=12, rho=2.0, dim=3)
    npz = write_dataset(generate_mixture(spec, 5.0, derive_stream(0, "split")), tmp_path)
    assert load_embeddings(npz).points.shape == (30, 3)
    return npz


def test_edited_dataset_npz(tmp_path):
    npz = small_dataset_npz(tmp_path)
    outcomes = fuzz(npz, lambda: load_embeddings(npz), seed=22)
    assert outcomes["rejected"] > CASES // 2


def test_edited_dataset_npz_member(tmp_path):
    npz = small_dataset_npz(tmp_path)
    # half the cases: each one rewrites the zip
    outcomes = fuzz(npz, lambda: load_embeddings(npz), seed=24, edit=in_zip_edited,
                    cases=CASES // 2)
    # an edit of the array data often still loads
    assert outcomes["rejected"] > CASES // 20 and outcomes["loaded"] > CASES // 20


def test_edited_checkpoint_npz(tmp_path):
    rng = derive_stream(0, "test")
    ckpt = tmp_path / "c.npz"
    save_checkpoint(ckpt, init_head(3, 4, 2, rng), Prototypes(M=unit_rows(rng, 3, 2)))
    outcomes = fuzz(ckpt, lambda: load_checkpoint(ckpt), seed=23)
    assert outcomes["rejected"] > CASES // 2
