"""Seeded fuzzing of the npz readers: random 1-3 byte edits of a valid dataset
and of a valid checkpoint either load cleanly or fail with a
``DataFormatError`` that names the file, with every warning an error. Edits
of the whole file mostly stop at the zip checksums, so the dataset is also
fuzzed one ``.npy`` member at a time inside a valid zip, which reaches
numpy's array header parser and the loader's own checks. Line edits of the
desk config give valid settings or a ``ValidationError`` that names a key or
a line. Edits of one ``ltgcd`` flag exit 0 with an empty stderr and the
outputs of a real run, or 1 or 2 with one line that names the edited flag or
file. A failure names its seed and case, so it reproduces."""

import csv
import io
import json
import math
import re
import string
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ltgcd.cli import cli
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


TINY_INI = "epochs = 1\nnum_classes = 4\nnum_known = 2\nsamples_per_known = 20\ndim = 4\n"
# the values a flag is set to; never 2**64 for --epochs, a valid request
# for 1.8e19 epochs
EDGE_VALUES = ("inf", "nan", "-1", "0", "1e400", "5e-320", "x", "", str(2**64), "-0.0", "0x10",
               "1_0")
TRAIN_FLAGS = ("--seed", "--sep", "--epochs", "--batch", "--noise-sigma", "--drop-prob", "--rho",
               "--alpha", "--beta")
# sweep takes --seeds in place of --seed
VALUE_FLAGS = {"gen": ("--seed", "--sep", "--rho"), "train": TRAIN_FLAGS,
               "sweep": (*TRAIN_FLAGS[1:], "--seeds", "--workers")}
FLAG_CASES = 27
USAGE_ERROR = re.compile(r"usage: ltgcd \w+ .*\nltgcd \w+: error: [^\n]*\n", re.DOTALL)


def cli_edge_files(tmp_path):
    """A valid dataset and checkpoint at ``TINY_INI``'s width, and the edge
    files a dataset or checkpoint flag is pointed at, each with the defect
    its error names: a dataset with no unlabeled row, one with fewer
    unlabeled rows than unknown classes, a checkpoint of another width and a
    file that is not an npz."""
    tmp_path.joinpath("tiny.ini").write_text(TINY_INI)
    rng = derive_stream(0, "test")
    spec = SplitSpec(num_classes=4, num_known=2, samples_per_known=20, dim=4)
    data = write_dataset(generate_mixture(spec, 5.0, rng), tmp_path)
    ckpt, narrow = tmp_path / "ckpt.npz", tmp_path / "narrow.npz"
    save_checkpoint(ckpt, init_head(4, 64, 32, rng), Prototypes(M=unit_rows(rng, 4, 32)))
    save_checkpoint(narrow, init_head(3, 64, 32, rng), Prototypes(M=unit_rows(rng, 4, 32)))
    all_labeled, few_unlabeled = tmp_path / "all_labeled.npz", tmp_path / "few_unlabeled.npz"
    np.savez(all_labeled, points=rng.standard_normal((5, 4)), labels=np.array([0, 0, 1, 1, 0]),
             is_labeled=np.ones(5, dtype=bool), num_classes=np.int64(2))
    np.savez(few_unlabeled, points=rng.standard_normal((5, 4)), labels=np.array([0, 0, 1, 2, 3]),
             is_labeled=np.arange(5) < 2, num_classes=np.int64(5))
    not_npz = tmp_path / "text.npz"
    not_npz.write_text(TINY_INI)
    return data, ckpt, {all_labeled: "no unlabeled row", few_unlabeled: "4 unknown classes but",
                        narrow: "takes d=3 inputs", not_npz: "not an npz archive"}


def cli_cases(tmp_path):
    """``(command, flag pairs, edited flag, defect)`` for every edge file at
    every dataset or checkpoint flag, then ``train --epochs 0``, then
    ``FLAG_CASES`` seeded edits of one flag: set to an edge value, dropped or
    repeated (defect None). An ``--out`` of ``OUT`` stands for the case's own
    output directory."""
    data, ckpt, edge_files = cli_edge_files(tmp_path)
    config = ("--config", str(tmp_path / "tiny.ini"))
    # --seeds 0 is one sweep cell, so no edit starts a worker pool
    bases = {
        "gen": [config, ("--out", "OUT")],
        "train": [config, ("--seed", "0"), ("--out", "OUT")],
        "train --dataset": [config, ("--dataset", str(data)), ("--out", "OUT")],
        "eval": [config, ("--checkpoint", str(ckpt)), ("--dataset", str(data))],
        "sweep": [config, ("--seeds", "0"), ("--workers", "1"), ("--out", "OUT")],
    }
    cases = [(name, [*(pair if pair[0] != flag else (flag, str(edge)) for pair in base)],
              flag, (str(edge), defect))
             for name, flag in (("train --dataset", "--dataset"), ("eval", "--dataset"),
                                ("eval", "--checkpoint"))
             for base in [bases[name]] for edge, defect in edge_files.items()]
    # a run that would train nothing, pinned so no seed decides whether it runs
    cases.append(("train", [*bases["train"], ("--epochs", "0")], "--epochs", None))
    rng = np.random.default_rng(26)
    for _ in range(FLAG_CASES):
        name = ("gen", "train", "sweep")[rng.integers(3)]
        base, kind = list(bases[name]), rng.integers(4)
        if kind >= 2:
            flag = VALUE_FLAGS[name][rng.integers(len(VALUE_FLAGS[name]))]
            values = [v for v in EDGE_VALUES if not (flag == "--epochs" and v == str(2**64))]
            base = [pair for pair in base if pair[0] != flag]
            base.append((flag, values[rng.integers(len(values))]))
        else:
            at = 1 + int(rng.integers(len(base) - 1))   # --config stays: desk scale is slow
            flag = base[at][0]
            base[at:at + 1] = [] if kind == 1 else [base[at]] * 2
        cases.append((name, base, flag, None))
    return cases


def check_written(name, pairs, out):
    """What an exit-0 command wrote to ``out``: ``gen`` a dataset that loads,
    ``train`` one ``train_log.csv`` row per epoch of a run of at least one
    epoch, ``sweep`` one ``results.csv`` row per planned cell."""
    if name == "gen":
        load_embeddings(out / "data.npz")
    elif name.startswith("train"):
        epochs = json.loads((out / "run_config.json").read_text())["epochs"]
        with open(out / "train_log.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) - 1 == epochs >= 1
    elif name == "sweep":   # an exit 0 wrote no failures.csv
        # sweep's default seeds, then the flags; a repeated flag holds its last value
        flags = {"--seeds": "0,1,2", **dict(pairs)}
        cells = math.prod(len(flags[flag].split(",")) for flag in ("--rho", "--alpha", "--beta",
                                                                   "--seeds") if flag in flags)
        with open(out / "results.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) - 1 == cells


def test_cli_edits(tmp_path, capsys):
    cases = cli_cases(tmp_path)
    assert len(cases) <= 40
    outcomes = {0: 0, 1: 0, 2: 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case, (name, pairs, flag, defect) in enumerate(cases):
            argv = [name.split()[0], *(str(tmp_path / f"out{case}") if v == "OUT" else v
                                       for pair in pairs for v in pair)]
            code = cli(argv)
            err = capsys.readouterr().err
            where = f"case {case}: ltgcd {' '.join(argv)}\nexit {code}, stderr:\n{err}"
            assert code in outcomes, where
            outcomes[code] += 1
            if code == 0:
                assert err == "", where
                try:
                    check_written(name, pairs, tmp_path / f"out{case}")
                except (AssertionError, OSError, DataFormatError) as exc:
                    pytest.fail(f"{where}\nwrote the wrong outputs: {exc!r}")
                continue
            assert err.count("\n") == 1 or USAGE_ERROR.fullmatch(err), where
            if defect is not None:   # the file and its defect, or a dataset given as a
                path, text = defect   # checkpoint (or the other way round)
                assert path in err and re.search(f"{text}|expected the arrays", err), where
            elif code == 1:   # so is an edited flag, by itself or by its config key
                key = {"--batch": "batch_size"}.get(flag, flag[2:].replace("-", "_"))
                assert re.search(rf"{flag}\b|\b{key}", err), where
            else:   # a valid setting whose run failed
                assert err.startswith(("training failed: ", "ltgcd: error: runs failed")), where
    assert all(outcomes.values()), outcomes
