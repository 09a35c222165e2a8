"""On-disk formats for depth, masks, poses, features, and models.

* Depth: binary 16-bit PGM (P5, maxval 65535), big-endian, values in
  millimeters. Loaders return meters; writers round meters to the
  nearest millimeter and clip to the representable range.
* Masks: binary 8-bit PGM, 0 = outside, 255 = inside (any non-zero
  value reads as inside).
* Poses: JSON ``{"R": [9 reals, row-major], "t": [3 reals, meters]}``.
* Intrinsics: JSON with fx, fy, cx, cy (numbers) and width, height
  (integers).
* Feature grids: raw blob with magic ``ORYT``, three unsigned 32-bit
  little-endian dims H, W, D, then H*W*D float32 values, C order.
* Models: whitespace-separated XYZ text plus a JSON sidecar (same stem,
  ``.json``) holding the diameter and symmetry transforms.

Every JSON file is written by :func:`write_json`, which sorts keys,
indents by one space and ends with a newline, so identical data always
produces identical bytes. Every writer replaces its target atomically
(:func:`_replacing`). A JSON reader raises ValueError, naming the file
kind and the key, on a file that is not an object or lacks a key it
needs, and a pose reader on an ``R`` or ``t`` that does not hold 9 or 3
finite numbers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import struct
import threading
from dataclasses import asdict, fields
from io import BytesIO, TextIOWrapper
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, ObjectModel, Pose
from .matchgen import GtPair

FEATURE_MAGIC = b"ORYT"
# Image rows of a feature grid converted to float32 at a time when written.
_FEATURE_ROWS = 16
# Largest depth a 16-bit PGM holds, in millimeters (65.535 m).
DEPTH_MAX_MM = 65535
# Distinct XYZ texts whose parsed points one process keeps (see read_model);
# the lock lets one caller parse a text while the others wait for its entry.
_XYZ_MEMO_ENTRIES = 8
_XYZ_MEMO_LOCK = threading.Lock()


# --------------------------------------------------------------- files --


def remove_temp_files(directory, names) -> None:
    """Delete each ``.<name>.<pid>-<thread>.tmp`` in ``directory`` whose name
    is in ``names``: the temp file a kill inside ``_replacing`` leaves."""
    for path in Path(directory).glob(".*.tmp"):
        temp = re.fullmatch(r"\.(.+)\.\d+-\d+\.tmp", path.name)
        if temp is not None and temp[1] in names:
            path.unlink(missing_ok=True)


@contextlib.contextmanager
def _replacing(path):
    """A binary file handle whose contents replace ``path`` atomically.

    The bytes go to a temp file in the target's directory, which replaces
    the target only when the ``with`` block ends without an error, so an
    interrupted write never leaves a partial file and the earlier file
    stays intact. On an error the temp file is removed and an ``OSError``
    names ``path``.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(temp, "wb") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


# ---------------------------------------------------------------- JSON --


def _dumps(payload, stubs: list | None) -> str:
    """``json.dumps`` in the file layout, with ndarrays taken as nested lists.

    When ``stubs`` is a list, each 2-D integer array is appended to it and
    encoded as the string ``"\\u0000ndarray <n>\\u0000"``, its 1-based
    position in ``stubs``; every other array is encoded as its ``tolist()``.
    """

    def default(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if stubs is None or obj.ndim != 2 or obj.dtype.kind not in "iu":
            return obj.tolist()
        stubs.append(obj)
        return f"\0ndarray {len(stubs)}\0"

    return json.dumps(
        payload, sort_keys=True, separators=(",", ": "), indent=1, default=default
    )


def _int_rows(arr: np.ndarray, indent: int) -> str:
    """A 2-D integer array as ``json.dumps(arr.tolist(), indent=1)`` lays it
    out inside a value whose line starts with ``indent`` spaces."""
    rows, cols = arr.shape
    if rows == 0:
        return "[]"
    outer, inner = "\n" + " " * (indent + 1), "\n" + " " * (indent + 2)
    row = "[" + inner + ("," + inner).join(["%d"] * cols) + outer + "]" if cols else "[]"
    body = ("," + outer).join([row] * rows) % tuple(arr.ravel().tolist())
    return "[" + outer + body + "\n" + " " * indent + "]"


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON with sorted keys, ``indent=1`` and a
    trailing newline, replacing ``path`` atomically.

    The bytes are exactly ``json.dumps(payload, sort_keys=True,
    separators=(",", ": "), indent=1) + "\\n"`` with every ndarray in the
    payload replaced by its ``tolist()``. A payload without arrays is one
    plain ``json.dumps`` call. A 2-D integer array at any depth, such as
    the ``anchor`` and ``query`` pixels of a match file, is laid out with
    one ``%``-template for all its rows instead of the pure-Python
    encoder's walk over its lists; any other array goes through
    ``tolist()``.
    """
    stubs = []
    text = _dumps(payload, stubs)
    for n, arr in enumerate(stubs, 1):
        stub = f'"\\u0000ndarray {n}\\u0000"'
        if text.count(stub) != 1:  # a string of the payload reads like a stub
            text = _dumps(payload, None)
            break
        at = text.index(stub)
        line = text[text.rfind("\n", 0, at) + 1 : at]
        text = text.replace(stub, _int_rows(arr, len(line) - len(line.lstrip(" "))))
    with _replacing(path) as fh:
        fh.write((text + "\n").encode())


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _values(payload, kind: str, keys) -> list:
    """``payload[key]`` for each of ``keys``.

    Raises ValueError naming ``kind`` when ``payload`` is not a JSON
    object, or naming the first of ``keys`` that it lacks.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} must hold a JSON object, got {type(payload).__name__}")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{kind} has no {key!r}")
    return [payload[key] for key in keys]


# ----------------------------------------------------------------- PGM --


def _read_pgm_header(data: bytes) -> tuple[list[bytes], int]:
    """Split a P5 header into its width, height and maxval tokens and the data offset."""
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM (P5) file")
    values = []
    pos = 2
    while len(values) < 3:
        if pos >= len(data):
            raise ValueError("truncated PGM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1  # a comment may end the file
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            values.append(data[pos:end])
            pos = end
    return values, pos + 1  # one whitespace after maxval


def _read_pgm(path, maxval: int, dtype, kind: str) -> np.ndarray:
    """The (H, W) samples of a P5 file whose header must declare ``maxval``
    and a width and height of at least 1, all in ASCII decimal digits."""
    data = Path(path).read_bytes()
    values, offset = _read_pgm_header(data)
    if not all(v.isdigit() for v in values) or min(int(values[0]), int(values[1])) < 1:
        shown = b" ".join(values).decode("latin-1")
        raise ValueError(f"{kind} PGM header must hold decimal values, width and height at "
                         f"least 1, got {shown!r}")
    w, h, got = map(int, values)
    if got != maxval:
        raise ValueError(f"{kind} PGM must have maxval {maxval}, got {got}")
    expected = offset + h * w * np.dtype(dtype).itemsize
    if len(data) < expected:
        raise ValueError(f"{kind} PGM of {w}x{h} needs {expected} bytes, got {len(data)}")
    return np.frombuffer(data, dtype=dtype, count=h * w, offset=offset).reshape(h, w)


def _write_pgm(path, samples: np.ndarray, maxval: int, kind: str) -> None:
    """Write (H, W) samples, already in their on-disk dtype, as a P5 file."""
    if samples.ndim != 2:
        raise ValueError(f"{kind} must be 2D")
    h, w = samples.shape
    with _replacing(path) as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode())
        fh.write(samples.tobytes())


def _depth_mm(depth_m) -> np.ndarray:
    """Meters to whole millimeters, clipped to what a depth PGM holds."""
    return np.clip(np.round(np.asarray(depth_m, dtype=np.float64) * 1000.0), 0, DEPTH_MAX_MM)


def quantize_depth(depth_m) -> np.ndarray:
    """The depth map in meters that a write_depth/read_depth round trip returns."""
    return _depth_mm(depth_m) * 0.001


def write_depth(path, depth_m) -> None:
    """Write a depth map in meters as a 16-bit millimeter PGM."""
    _write_pgm(path, _depth_mm(depth_m).astype(">u2"), DEPTH_MAX_MM, "depth")


def read_depth(path) -> np.ndarray:
    """Read a 16-bit millimeter PGM as a depth map in meters."""
    return _read_pgm(path, DEPTH_MAX_MM, ">u2", "depth").astype(np.float64) * 0.001


def write_mask(path, mask) -> None:
    _write_pgm(path, np.asarray(mask).astype(bool).astype(np.uint8) * 255, 255, "mask")


def read_mask(path) -> np.ndarray:
    return _read_pgm(path, 255, np.uint8, "mask") > 0


# ---------------------------------------------------------------- poses --


def pose_to_dict(pose: Pose) -> dict:
    return {
        "R": [float(v) for v in pose.rotation.ravel()],
        "t": [float(v) for v in pose.translation],
    }


def _finite(value, count: int, key: str) -> np.ndarray:
    """Pose entry ``key`` as ``count`` floats; ValueError naming it otherwise.

    As for the camera file, a bool is never a number.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.shape != (count,) \
            or not np.isfinite(arr).all() or any(isinstance(v, bool) for v in value):
        raise ValueError(f"pose {key!r} must hold {count} finite numbers, got {value!r:.80}")
    return arr.astype(np.float64)


def pose_from_dict(payload: dict) -> Pose:
    rot, t = _values(payload, "pose", ("R", "t"))
    return Pose(_finite(rot, 9, "R").reshape(3, 3), _finite(t, 3, "t"))


def write_pose(path, pose: Pose) -> None:
    write_json(path, pose_to_dict(pose))


def read_pose(path) -> Pose:
    return pose_from_dict(read_json(path))


# ----------------------------------------------------------- intrinsics --


def write_intrinsics(path, intrinsics: CameraIntrinsics) -> None:
    write_json(path, asdict(intrinsics))


def read_intrinsics(path) -> CameraIntrinsics:
    found = fields(CameraIntrinsics)
    raw = _values(read_json(path), "camera file", [f.name for f in found])
    values = {}
    for f, value in zip(found, raw):
        # By the field's annotation; a bool is never a number.
        types, noun = ((int,), "an integer") if f.type == "int" else ((int, float), "a number")
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"camera {f.name!r} must be {noun}, got {value!r}")
        values[f.name] = value if f.type == "int" else float(value)
    return CameraIntrinsics(**values)


# ------------------------------------------------------------- features --


def write_features(path, features) -> None:
    arr = np.asarray(features)
    if arr.ndim != 3:
        raise ValueError("feature grid must be (H, W, D)")
    h, w, d = arr.shape
    # The float32 payload is converted and written _FEATURE_ROWS image rows
    # at a time, through one buffer, so no copy of the grid exists.
    buf = np.empty((min(_FEATURE_ROWS, h), w, d), dtype="<f4")
    with _replacing(path) as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", h, w, d))
        for top in range(0, h, _FEATURE_ROWS):
            rows = arr[top : top + _FEATURE_ROWS]
            block = buf[: len(rows)]
            block[...] = rows
            fh.write(block)


def read_features(path) -> np.ndarray:
    """The stored (H, W, D) grid, as its little-endian float32 values.

    The payload is not widened: a stage picks the cells it uses first
    and widens only those, which is exact. The array is writable and
    lies in the buffer the file was read into.
    """
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(data)
    if data[:4] != FEATURE_MAGIC:
        raise ValueError("bad feature file magic")
    if len(data) < 16:
        raise ValueError(f"feature file header needs 16 bytes, got {len(data)}")
    h, w, d = struct.unpack("<III", data[4:16])
    expected = 16 + 4 * h * w * d
    if len(data) != expected:
        raise ValueError(f"feature file of {h}x{w}x{d} needs {expected} bytes, got {len(data)}")
    return np.frombuffer(data, dtype="<f4", offset=16).reshape(h, w, d)


# --------------------------------------------------------------- models --


def model_sidecar(path) -> Path:
    """The JSON sidecar that holds the diameter and symmetries of the model
    whose XYZ file is ``path``."""
    return Path(path).with_suffix(".json")


def write_model(path, model: ObjectModel) -> None:
    """Write XYZ text plus the metadata sidecar next to it."""
    path = Path(path)
    lines = [f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for p in model.points]
    with _replacing(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())
    write_json(
        model_sidecar(path),
        {
            "diameter": model.diameter_m,
            "symmetries": [pose_to_dict(s) for s in model.symmetries],
        },
    )


@functools.lru_cache(maxsize=_XYZ_MEMO_ENTRIES)
def _parse_xyz(data: bytes) -> np.ndarray:
    """The read-only points of an XYZ file's bytes, decoded as ``open`` would."""
    points = np.loadtxt(TextIOWrapper(BytesIO(data)), dtype=np.float64, ndmin=2)
    points.flags.writeable = False
    return points


def read_model(path) -> ObjectModel:
    """Read a model's XYZ text and sidecar.

    The parsed points are memoised by the file's exact bytes, for the last
    ``_XYZ_MEMO_ENTRIES`` texts, so pairs that share a model file parse it
    once per process, also when worker threads read it at once. Every call
    still reads both files and builds the model, whose diameter check runs
    on every read.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise FileNotFoundError(f"{path} not found.") from None  # as np.loadtxt says it
    with _XYZ_MEMO_LOCK:
        points = _parse_xyz(data)
    diameter_m, symmetries = _values(
        read_json(model_sidecar(path)), "model sidecar", ("diameter", "symmetries")
    )
    return ObjectModel(
        points=points,
        diameter_m=float(diameter_m),
        symmetries=tuple(pose_from_dict(s) for s in symmetries),
    )


# -------------------------------------------------------------- matches --


def write_matches(path, pair: GtPair) -> None:
    write_json(
        path,
        {
            "anchor": pair.anchor,
            "query": pair.query,
            "relative_pose": pose_to_dict(pair.relative),
            "count": len(pair),
        },
    )


def read_matches(path) -> GtPair:
    anchor, query, relative = _values(
        read_json(path), "match file", ("anchor", "query", "relative_pose")
    )
    return GtPair(anchor=anchor, query=query, relative=pose_from_dict(relative))
