"""Binary checkpoint container for both training stages.

Layout: magic `HYPC`, version u32 LE, then named sections, each
[name_len u16][name utf-8][payload_len u64][payload][crc32 u32], all
little-endian. Arrays are raw little-endian float64 with shapes carried
in the `meta` JSON section, so round trips are bitwise exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .encoder import EncoderModel, Vocabulary
from .errors import CheckpointError, StageError
from .hierarchy import LabelEmbeddings
from .loss import ClassifierHead

MAGIC = b"HYPC"
VERSION = 1

STAGE_LABELS = "labels"
STAGE_CLASSIFIER = "classifier"


@dataclass
class LabelsCheckpoint:
    stage = STAGE_LABELS
    emb: LabelEmbeddings
    class_map: list[tuple[str, str]]
    config: dict
    seed: int


@dataclass
class ClassifierCheckpoint:
    stage = STAGE_CLASSIFIER
    model: EncoderModel
    head: ClassifierHead
    class_names: list[str]
    config: dict
    seed: int


def _pack_sections(sections: list[tuple[str, bytes]]) -> bytes:
    out = [MAGIC, struct.pack("<I", VERSION)]
    for name, payload in sections:
        encoded = name.encode("utf-8")
        out.append(struct.pack("<H", len(encoded)))
        out.append(encoded)
        out.append(struct.pack("<Q", len(payload)))
        out.append(payload)
        out.append(struct.pack("<I", zlib.crc32(payload)))
    return b"".join(out)


def _unpack_sections(blob: bytes, path) -> dict[str, bytes]:
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(blob) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    sections: dict[str, bytes] = {}
    offset = 8
    while offset < len(blob):
        try:
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            raw_name = blob[offset : offset + name_len]
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: section name {raw_name!r} is not UTF-8") from None
            offset += name_len
            (payload_len,) = struct.unpack_from("<Q", blob, offset)
            offset += 8
            payload = blob[offset : offset + payload_len]
            if len(payload) != payload_len:
                raise CheckpointError(f"{path}: truncated section {name!r}")
            offset += payload_len
            (crc,) = struct.unpack_from("<I", blob, offset)
            offset += 4
        except struct.error as exc:
            raise CheckpointError(f"{path}: truncated checkpoint") from exc
        if zlib.crc32(payload) != crc:
            raise CheckpointError(f"{path}: checksum mismatch in section {name!r}")
        sections[name] = payload
    return sections


def _array_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def write_atomic(path, writer: Callable[[Path], object]) -> None:
    """Run `writer(tmp_path)` on `<path>.tmp` in the destination directory,
    then rename it over `path`. If the writer or the rename raises, the
    temp file is removed and the error propagates, so a failed write
    leaves neither a partial `path` nor a stray temp file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_checkpoint(path, sections: list[tuple[str, bytes]]) -> None:
    blob = _pack_sections(sections)
    write_atomic(path, lambda tmp: tmp.write_bytes(blob))


def _meta_json(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_labels_checkpoint(
    path, emb: LabelEmbeddings, class_map: list[tuple[str, str]], config: dict, seed: int
) -> None:
    meta = {
        "stage": STAGE_LABELS,
        "seed": seed,
        "config": config,
        "nodes": list(emb.nodes),
        "class_map": [[label, node] for label, node in class_map],
        "shapes": {"labels.vectors": list(emb.vectors.shape)},
    }
    sections = [("meta", _meta_json(meta)), ("labels.vectors", _array_bytes(emb.vectors))]
    _write_checkpoint(path, sections)


def save_classifier_checkpoint(
    path,
    model: EncoderModel,
    head: ClassifierHead,
    class_names: list[str],
    config: dict,
    seed: int,
) -> None:
    arrays = {f"enc.{k}": v for k, v in model.params().items()}
    arrays |= {f"head.{k}": v for k, v in head.params().items()}
    meta = {
        "stage": STAGE_CLASSIFIER,
        "seed": seed,
        "config": config,
        "class_names": list(class_names),
        "vocab": model.vocab.token_to_index,
        "shapes": {name: list(arr.shape) for name, arr in arrays.items()},
    }
    sections = [("meta", _meta_json(meta))]
    sections += [(name, _array_bytes(arr)) for name, arr in sorted(arrays.items())]
    _write_checkpoint(path, sections)


# Named axes of every classifier array; arrays sharing an axis name must
# agree on its size, and the first two are fixed by the meta section.
_CLASSIFIER_AXES = {
    "enc.embedding": ("vocabulary size", "token dim"),
    "enc.w1": ("token dim", "encoder dim"),
    "enc.b1": ("encoder dim",),
    "head.w_c": ("encoder dim", "number of class names"),
    "head.b_c": ("number of class names",),
    "head.w_p": ("encoder dim", "projection dim"),
    "head.b_p": ("projection dim",),
}


def _is_tsv_field(value) -> bool:
    """Whether value can be written as one field of a UTF-8 TSV line: a
    string with no tab, CR or LF that encodes as UTF-8 (no lone surrogate)."""
    if not isinstance(value, str) or any(c in value for c in "\t\r\n"):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def load_checkpoint(path, expect_stage: str | None = None):
    """Read and validate a checkpoint of either stage.

    Every unreadable, corrupt or internally inconsistent file raises
    CheckpointError (StageError for a valid file of the wrong stage). Node,
    class-map and class names must be TSV fields (see `_is_tsv_field`),
    because exports and class maps write them as such."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    sections = _unpack_sections(blob, path)
    if "meta" not in sections:
        raise CheckpointError(f"{path}: missing meta section")
    try:
        meta = json.loads(sections["meta"].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable meta section: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta section is not a JSON object")
    stage = meta.get("stage")
    if expect_stage is not None and stage != expect_stage:
        raise StageError(f"{path}: stage is {stage!r}, expected {expect_stage!r}")
    if stage not in (STAGE_LABELS, STAGE_CLASSIFIER):
        raise CheckpointError(f"{path}: unknown stage tag {stage!r}")

    def field(name: str, kind: type):
        value = meta.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CheckpointError(f"{path}: meta field {name!r} is missing or not a {kind.__name__}")
        return value

    shapes = field("shapes", dict)
    config = field("config", dict)
    seed = field("seed", int)

    def grab(name: str, ndim: int) -> np.ndarray:
        if name not in sections:
            raise CheckpointError(f"{path}: missing section {name!r}")
        shape = shapes.get(name)
        payload = sections[name]
        if not (
            isinstance(shape, list)
            and len(shape) == ndim
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)
            and math.prod(shape) * 8 == len(payload)
        ):
            raise CheckpointError(
                f"{path}: section {name!r} holds {len(payload)} bytes, "
                f"which does not match its recorded shape {shape!r}"
            )
        return np.frombuffer(payload, dtype="<f8").reshape(shape).astype(float)

    def check_names(key: str, names: list) -> None:
        for name in names:
            if not _is_tsv_field(name):
                raise CheckpointError(
                    f"{path}: {key} must be strings with no tab or line break that encode "
                    f"as UTF-8, got {name!r}"
                )

    if stage == STAGE_LABELS:
        vectors = grab("labels.vectors", 2)
        nodes = field("nodes", list)
        if len(nodes) != len(vectors):
            raise CheckpointError(
                f"{path}: {len(nodes)} node names for {len(vectors)} embedding rows"
            )
        check_names("nodes", nodes)
        rows = field("class_map", list)
        if not all(isinstance(row, list) and len(row) == 2 for row in rows):
            raise CheckpointError(f"{path}: class_map rows must be [label, node] string pairs")
        check_names("class_map entries", [x for row in rows for x in row])
        emb = LabelEmbeddings(nodes=nodes, vectors=vectors)
        return LabelsCheckpoint(emb, [(label, node) for label, node in rows], config, seed)

    token_to_index = field("vocab", dict)
    indices = list(token_to_index.values())
    if (
        not all(isinstance(i, int) and not isinstance(i, bool) for i in indices)
        or sorted(indices) != list(range(len(indices)))
    ):
        raise CheckpointError(f"{path}: vocabulary indices are not 0..{len(token_to_index) - 1}")
    class_names = field("class_names", list)
    check_names("class_names", class_names)
    arrays = {name: grab(name, len(axes)) for name, axes in _CLASSIFIER_AXES.items()}
    sizes = {"vocabulary size": len(token_to_index), "number of class names": len(class_names)}
    for name, axes in _CLASSIFIER_AXES.items():
        for axis, n in zip(axes, arrays[name].shape):
            if sizes.setdefault(axis, n) != n:
                raise CheckpointError(
                    f"{path}: {name} has shape {arrays[name].shape}, "
                    f"but the {axis} is {sizes[axis]}"
                )
    parts: dict[str, dict[str, np.ndarray]] = {"enc": {}, "head": {}}
    for name, arr in arrays.items():
        owner, key = name.split(".")
        parts[owner][key] = arr
    model = EncoderModel(vocab=Vocabulary(token_to_index), **parts["enc"])
    return ClassifierCheckpoint(model, ClassifierHead(**parts["head"]), class_names, config, seed)
