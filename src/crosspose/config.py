"""Pipeline configuration, dataset manifests, and seed derivation.

One master seed drives every random choice in a run. Each consumer
draws from a named sub-stream (``registration``, ``synth``) derived from
the master seed, so re-running any single stage reproduces its exact
results regardless of what else ran. Only ``synth`` and ``register``
draw from ``--seed``; the other stages are deterministic without one,
and accept it and ignore it.

A config file mirrors the flags: its keys are the destinations of the
manifest subcommands' flags (``pairs_file`` for ``--pairs``,
``output_dir`` for ``--out-dir``), with the matching and registration
flags grouped in the ``match`` and ``registration`` sections.

A dataset is described by a pairs manifest: JSON with a ``pairs`` list,
each entry naming a model and the per-view depth/mask/camera/pose
(optionally feature) files. Paths are resolved relative to the manifest
file, and every referenced file must exist at load time. Unknown keys in
an entry or a view are rejected, so a misspelt optional key fails
loudly instead of being ignored. A pair id names the pair's output
files, so it must be a plain file name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .io import read_json
from .matcher import MatchParams
from .matchgen import DEFAULT_MIN_MATCHES, DEFAULT_NN_RADIUS
from .registration import RegistrationParams

# The stream numbers enter every derived seed; never renumber them.
_SEED_STREAMS = {"registration": 2, "synth": 3}


def derive_seed(seed: int, stream: str) -> int:
    """Sub-seed for one named consumer of the master seed."""
    if stream not in _SEED_STREAMS:
        raise ValueError(
            f"unknown seed stream {stream!r}; expected one of {sorted(_SEED_STREAMS)}"
        )
    ss = np.random.SeedSequence([int(seed), _SEED_STREAMS[stream]])
    return int(ss.generate_state(1, np.uint64)[0])


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


def _resolve(base: Path, value, required: bool, what: str) -> Path | None:
    if value is None:
        if required:
            raise ConfigError(f"manifest entry is missing {what}")
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a path string, got {value!r}")
    path = (base / value).resolve() if not Path(value).is_absolute() else Path(value)
    if not path.exists():
        raise ConfigError(f"{what} does not exist: {path}")
    return path


def _load_view(base: Path, data: dict, pair_id: str, side: str) -> ViewPaths:
    if not isinstance(data, dict):
        raise ConfigError(f"pair {pair_id}: {side} view must be an object")
    _check_keys(data, _VIEW_KEYS, f"pair {pair_id}: {side} view")
    return ViewPaths(
        depth=_resolve(base, data.get("depth"), True, f"{pair_id}/{side} depth"),
        mask=_resolve(base, data.get("mask"), True, f"{pair_id}/{side} mask"),
        camera=_resolve(base, data.get("camera"), True, f"{pair_id}/{side} camera"),
        pose=_resolve(base, data.get("pose"), True, f"{pair_id}/{side} pose"),
        features=_resolve(base, data.get("features"), False, f"{pair_id}/{side} features"),
    )


def load_pairs(manifest_path) -> list[PairEntry]:
    """Load and validate a pairs manifest."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ConfigError(f"pairs manifest does not exist: {manifest_path}")
    try:
        payload = read_json(manifest_path)
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
                model=_resolve(base, entry.get("model"), True, f"{pair_id} model"),
                anchor=_load_view(base, entry.get("anchor"), pair_id, "anchor"),
                query=_load_view(base, entry.get("query"), pair_id, "query"),
                pred_mask_query=_resolve(
                    base, entry.get("pred_mask_query"), False, f"{pair_id} pred query mask"
                ),
            )
        )
    ids = [p.pair_id for p in pairs]
    if len(set(ids)) != len(ids):
        raise ConfigError("pair ids must be unique")
    return pairs


@dataclass(frozen=True)
class EvalConfig:
    """Everything a pipeline run needs, bundled and validated."""

    pairs_file: Path | None = None
    output_dir: Path | None = None
    match: MatchParams = field(default_factory=MatchParams)
    registration: RegistrationParams = field(default_factory=RegistrationParams)
    nn_radius: float = DEFAULT_NN_RADIUS
    min_matches: int = DEFAULT_MIN_MATCHES
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.nn_radius < np.inf:
            raise ConfigError("nn_radius must be finite and positive")
        if self.min_matches < 0:
            raise ConfigError("min_matches must be non-negative")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")


def _build_params(cls, data: dict, section: str):
    _check_keys(data, {f.name for f in fields(cls)}, f"config section {section!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {section!r} is invalid: {exc}") from exc


def load_config(path=None, defaults=None, **overrides) -> EvalConfig:
    """Build an EvalConfig from an optional JSON file plus overrides.

    Precedence: explicit overrides (e.g. command-line flags) beat the
    file, which beats ``defaults`` (e.g. environment variables), which
    beat the built-in values. Override values of None are ignored, so
    flags can be passed through unconditionally.
    """
    data: dict = dict(defaults or {})
    base = Path.cwd()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file does not exist: {path}")
        try:
            file_data = read_json(path)
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_data, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(file_data)
        base = path.parent

    known = {f.name for f in fields(EvalConfig)}
    _check_keys(data, known, "config")

    kwargs: dict = {}
    for name, cls in (("match", MatchParams), ("registration", RegistrationParams)):
        section_data = data.get(name, {})
        if not isinstance(section_data, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        section_data = dict(section_data)
        section_overrides = overrides.pop(name, None) or {}
        section_data.update(
            {k: v for k, v in section_overrides.items() if v is not None}
        )
        kwargs[name] = _build_params(cls, section_data, name)

    for name in ("nn_radius", "min_matches", "workers", "seed"):
        if overrides.get(name) is not None:
            kwargs[name] = overrides[name]
        elif name in data:
            kwargs[name] = data[name]

    for name in ("pairs_file", "output_dir"):
        value = overrides.get(name)
        if value is None:
            value = data.get(name)
            if value is not None:
                value = base / value
        if value is not None:
            kwargs[name] = Path(value)

    leftover = {
        k for k, v in overrides.items()
        if v is not None and k not in known
    }
    if leftover:
        raise ConfigError(f"unknown config overrides: {sorted(leftover)}")
    try:
        return EvalConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
