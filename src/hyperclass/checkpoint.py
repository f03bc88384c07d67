"""Binary checkpoint container for both training stages.

Layout: magic `HYPC`, version u32 LE, then named sections, each
[name_len u16][name utf-8][payload_len u64][payload][crc32 u32], all
little-endian, each name at most once. Arrays are raw little-endian
float64 with shapes carried in the `meta` JSON section, so round trips
are bitwise exact.
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

from .data import is_tsv_field
from .encoder import EncoderModel, Vocabulary
from .errors import CheckpointError, StageError
from .hierarchy import LabelEmbeddings, _first_repeat
from .loss import ClassifierHead

MAGIC = b"HYPC"
VERSION = 1

STAGE_LABELS = "labels"
STAGE_CLASSIFIER = "classifier"


@dataclass
class LabelsCheckpoint:
    emb: LabelEmbeddings
    class_map: list[tuple[str, str]]
    config: dict
    seed: int


@dataclass
class ClassifierCheckpoint:
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
        if name in sections:
            raise CheckpointError(f"{path}: section {name!r} appears twice")
        sections[name] = payload
    return sections


def write_atomic(outputs: dict[str | os.PathLike, Callable[[Path], object]]) -> None:
    """Write every output of a command, or none of them.

    Each `writer(tmp_path)` writes `<path>.tmp` in its destination
    directory, and only once every writer has succeeded are the temp files
    renamed over their paths. If a writer or a rename raises, every temp
    file and every output already renamed is removed and the error
    propagates. A writer touches only its temp file, so an OSError with an
    errno is raised again naming the output's given path, not the temp
    file."""
    staged = [(Path(path), writer) for path, writer in outputs.items()]
    temps = [path.with_name(path.name + ".tmp") for path, _ in staged]
    renamed: list[Path] = []
    try:
        for (current, writer), tmp in zip(staged, temps):
            writer(tmp)
        for (current, _), tmp in zip(staged, temps):
            os.replace(tmp, current)
            renamed.append(current)
    except BaseException as exc:
        for path in temps + renamed:
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(current)) from exc
        raise


def _save(path, stage: str, config: dict, seed: int, fields: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a checkpoint to `path`: a meta section (the stage, seed,
    config, the stage's own `fields` and every array's shape, as compact
    JSON with sorted keys), then one section per array, in name order, of
    raw little-endian float64. The CLI writes it through write_atomic."""
    shapes = {name: list(arr.shape) for name, arr in arrays.items()}
    meta = {"stage": stage, "seed": seed, "config": config, "shapes": shapes, **fields}
    sections = [("meta", json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"))]
    sections += [
        (name, np.ascontiguousarray(arr, dtype="<f8").tobytes()) for name, arr in sorted(arrays.items())
    ]
    Path(path).write_bytes(_pack_sections(sections))


def save_labels_checkpoint(
    path, emb: LabelEmbeddings, class_map: list[tuple[str, str]], config: dict, seed: int
) -> None:
    fields = {"nodes": list(emb.nodes), "class_map": [[label, node] for label, node in class_map]}
    _save(path, STAGE_LABELS, config, seed, fields, {"labels.vectors": emb.vectors})


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
    fields = {"class_names": list(class_names), "vocab": model.vocab.token_to_index}
    _save(path, STAGE_CLASSIFIER, config, seed, fields, arrays)


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


def load_checkpoint(path, expect_stage: str | None = None):
    """Read and validate a checkpoint of either stage.

    Every unreadable, corrupt or internally inconsistent file raises
    CheckpointError (StageError for a valid file of the wrong stage), and so
    does a section or recorded shape of an array its stage does not read. Node,
    class-map and class names must be TSV fields (see `data.is_tsv_field`),
    because exports and class maps write them as such, and no node, class
    map label or node, or class name may repeat. Arrays must be finite, and label points inside the
    unit ball."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror}") from None
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
    stage_arrays = {"labels.vectors"} if stage == STAGE_LABELS else _CLASSIFIER_AXES.keys()
    for name in [*(name for name in sections if name != "meta"), *shapes]:
        if name not in stage_arrays:
            raise CheckpointError(f"{path}: unexpected section {name!r}")

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
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(float)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: section {name!r} holds non-finite values")
        return arr

    def check_names(key: str, names: list) -> None:
        for name in names:
            if not is_tsv_field(name):
                raise CheckpointError(
                    f"{path}: {key} must be strings with no tab or line break that encode "
                    f"as UTF-8, got {name!r}"
                )

    def check_unique(key: str, names: list[str]) -> None:
        if repeat := _first_repeat(names):
            raise CheckpointError(f"{path}: {names[repeat[1]]!r} appears twice in {key}")

    if stage == STAGE_LABELS:
        vectors = grab("labels.vectors", 2)
        nodes = field("nodes", list)
        if len(nodes) != len(vectors):
            raise CheckpointError(
                f"{path}: {len(nodes)} node names for {len(vectors)} embedding rows"
            )
        check_names("nodes", nodes)
        check_unique("nodes", nodes)
        outside = np.flatnonzero(~(np.vecdot(vectors, vectors) < 1.0))
        if len(outside):
            raise CheckpointError(f"{path}: node {nodes[outside[0]]!r} lies outside the unit ball")
        rows = field("class_map", list)
        if not all(isinstance(row, list) and len(row) == 2 for row in rows):
            raise CheckpointError(f"{path}: class_map rows must be [label, node] string pairs")
        check_names("class_map entries", [x for row in rows for x in row])
        check_unique("class_map labels", [label for label, _ in rows])
        check_unique("class_map nodes", [node for _, node in rows])
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
    check_unique("class_names", class_names)
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
