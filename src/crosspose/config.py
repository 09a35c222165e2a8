"""Dataset manifests and seed derivation.

One master seed drives every random choice in a run. Each consumer
draws from a named sub-stream (``registration``, ``synth``) derived from
the master seed, so re-running any single stage reproduces its exact
results regardless of what else ran. A per-pair seed mixes the pair id
into its stream's seed, so it depends on neither batch order nor worker
count. Only ``synth`` and ``register`` draw from ``--seed``; the other
stages are deterministic without one, and accept it and ignore it.

A dataset is described by a pairs manifest: JSON with a ``pairs`` list,
each entry naming a model and the per-view depth/mask/camera/pose
(optionally feature) files. Each path is joined to the manifest's
directory as written, an absolute one kept as it is; its symlinks and
``..`` are left for the file system to follow, so a stage sees the
symlinks the manifest names. A listed file need not exist when the
manifest loads: a stage that reads a missing one fails only that pair.
Unknown keys in an entry or a view are rejected, so a misspelt optional
key fails loudly instead of being ignored. A pair id names the pair's
output files, so it must be a plain file name.
"""

from __future__ import annotations

import zlib
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .io import read_json

# The stream numbers enter every derived seed; never renumber them.
_SEED_STREAMS = {"registration": 2, "synth": 3}


def _mix_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence([seed, key]).generate_state(1, np.uint64)[0])


def derive_seed(seed: int, stream: str) -> int:
    """Sub-seed for one named consumer of the master seed."""
    if stream not in _SEED_STREAMS:
        raise ValueError(
            f"unknown seed stream {stream!r}; expected one of {sorted(_SEED_STREAMS)}"
        )
    return _mix_seed(int(seed), _SEED_STREAMS[stream])


def pair_seed(seed: int, pair_id: str) -> int:
    """Sub-seed for one pair of a stage seeded with ``seed``."""
    return _mix_seed(seed, zlib.crc32(pair_id.encode()))


@dataclass(frozen=True)
class ViewPaths:
    depth: Path
    mask: Path
    camera: Path
    pose: Path
    features: Path | None = None


@dataclass(frozen=True)
class PairEntry:
    pair_id: str
    model: Path
    anchor: ViewPaths
    query: ViewPaths
    pred_mask_query: Path | None = None


_ENTRY_KEYS = {"id", "model", "anchor", "query", "pred_mask_query"}
_VIEW_KEYS = {f.name for f in fields(ViewPaths)}


def _check_keys(data: dict, allowed: set, what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {sorted(unknown)}")


def _join(base: Path, value, required: bool, what: str) -> Path | None:
    if value is None:
        if required:
            raise ConfigError(f"manifest entry is missing {what}")
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a path string, got {value!r}")
    if "\0" in value:
        raise ConfigError(f"{what} must not hold a NUL byte, got {value!r}")
    return base / value


def _load_view(base: Path, data: dict, pair_id: str, side: str) -> ViewPaths:
    if not isinstance(data, dict):
        raise ConfigError(f"pair {pair_id}: {side} view must be an object")
    _check_keys(data, _VIEW_KEYS, f"pair {pair_id}: {side} view")
    return ViewPaths(**{
        f.name: _join(
            base, data.get(f.name), f.default is MISSING, f"{pair_id}/{side} {f.name}"
        )
        for f in fields(ViewPaths)
    })


def load_pairs(manifest_path) -> list[PairEntry]:
    """Load and validate a pairs manifest."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ConfigError(f"pairs manifest does not exist: {manifest_path}")
    try:
        payload = read_json(manifest_path)
    except OSError as exc:  # a directory, or a file it may not read
        raise ConfigError(f"cannot read pairs manifest {manifest_path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"pairs manifest is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("pairs manifest must hold a JSON object")
    entries = payload.get("pairs")
    if not isinstance(entries, list) or len(entries) == 0:
        raise ConfigError("pairs manifest must contain a non-empty 'pairs' list")

    base = manifest_path.parent
    pairs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"pairs entry {i} must be an object")
        pair_id = entry.get("id", f"pair_{i:04d}")
        if not isinstance(pair_id, str) or pair_id in ("", ".", "..") or any(
            c in pair_id for c in "/\\\0"
        ):
            raise ConfigError(f"pairs entry {i}: id {pair_id!r} is not a plain file name")
        _check_keys(entry, _ENTRY_KEYS, f"pair {pair_id}")
        pairs.append(
            PairEntry(
                pair_id=pair_id,
                model=_join(base, entry.get("model"), True, f"{pair_id} model"),
                anchor=_load_view(base, entry.get("anchor"), pair_id, "anchor"),
                query=_load_view(base, entry.get("query"), pair_id, "query"),
                pred_mask_query=_join(
                    base, entry.get("pred_mask_query"), False, f"{pair_id} pred query mask"
                ),
            )
        )
    ids = [p.pair_id for p in pairs]
    if len(set(ids)) != len(ids):
        raise ConfigError("pair ids must be unique")
    return pairs
