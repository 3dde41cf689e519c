"""Seeded fuzzing of the npz readers: random 1-3 byte edits of a valid dataset
and of a valid checkpoint either load cleanly or fail with a
``DataFormatError`` that names the file, with every warning an error. Edits
of the whole file mostly stop at the zip checksums, so the dataset is also
fuzzed one ``.npy`` member at a time inside a valid zip, which reaches
numpy's array header parser and the loader's own checks. Line edits of the
desk config give valid settings or a ``ValidationError`` that names a key or
a line. A failure names its seed and case, so it reproduces."""

import io
import re
import string
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ltgcd.config import CONFIG_KEYS, SplitSpec, build_params, file_key, parse_config_text
from ltgcd.data import generate_mixture, load_embeddings, write_dataset
from ltgcd.errors import DataFormatError, ValidationError
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


DESK_INI = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"
# a value that underflows, overflows, is not finite, is signed zero, or is
# spelled as Python's int() or float() may or may not accept it
FUZZ_VALUES = ("5e-320", "1e308", "1e400", "inf", "nan", "-0.0", "0x10", "1_000", "", "text")
CONFIG_CASES = 3000
NAMED = re.compile(rf"^desk\.ini:\d+: |\b({'|'.join(map(file_key, CONFIG_KEYS))})\b")


def config_edited(lines: list[str], rng: np.random.Generator) -> list[str]:
    """``lines`` after 1-3 edits, each deleting, duplicating or corrupting a
    line (at one place, a character inserted, deleted, overwritten or left),
    or replacing a line's value with one of ``FUZZ_VALUES``."""
    lines = list(lines)
    for _ in range(rng.integers(1, 4)):
        pos, kind = int(rng.integers(len(lines))), rng.integers(4)
        line = lines[pos]
        if kind == 0:
            del lines[pos]
        elif kind == 1:
            lines.insert(pos, line)
        elif kind == 2:
            at, char = int(rng.integers(len(line) + 1)), rng.choice(list(string.printable[:95]))
            lines[pos] = line[:at] + char * int(rng.integers(2)) + line[at + rng.integers(2):]
        else:
            lines[pos] = line.partition("=")[0] + "= " + FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]
        if not lines:
            break
    return lines


def test_edited_desk_config():
    lines = DESK_INI.read_text().splitlines()
    rng = np.random.default_rng(25)
    outcomes = {"valid": 0, "rejected": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in range(CONFIG_CASES):
            text = "\n".join(config_edited(lines, rng))
            try:
                build_params(parse_config_text(text, source="desk.ini"))
                outcomes["valid"] += 1
            except ValidationError as exc:
                assert NAMED.search(str(exc)), f"case {case}: names no key or line: {exc}"
                outcomes["rejected"] += 1
            except Exception as exc:
                pytest.fail(f"case {case}: {type(exc).__name__}: {exc}\n{text}")
    assert outcomes["valid"] > CONFIG_CASES // 10 and outcomes["rejected"] > CONFIG_CASES // 10
