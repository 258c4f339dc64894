"""Seeded workload inputs: synthetic LiDAR drives, cached per seed.

Inputs depend only on the seed and the workload's sizes.  Generating a
26-frame 30k-point drive takes about 15 s, so every drive is cached as a
``.npy`` under ``.bench_out/inputs``.  The cache key includes a digest
of the dataset generator's source files, so a change to the generator
misses the cache instead of reusing stale frames.  Each run reports the
sha256 of its input arrays; equal digests on two commits show the runs
measured the same inputs.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from quickbench.common import OUT, ROOT

_GENERATOR_SOURCES = ("src/repro/datasets", "src/repro/geometry")


def _generator_digest() -> str:
    digest = hashlib.sha256()
    for rel in _GENERATOR_SOURCES:
        for path in sorted((ROOT / rel).glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def drive(seed: int, scene_seed: int, n_frames: int, n_points: int) -> np.ndarray:
    """``(n_frames, n_points, 3)`` successive frames of one synthetic drive.

    Frames come from :func:`repro.datasets.drive.generate_drive` with a
    scanner sized for ``n_points`` and are subsampled to exactly that
    many ground-removed points; a scene that yields fewer is an error.
    """
    key = f"drive-s{seed}-c{scene_seed}-f{n_frames}-n{n_points}-{_generator_digest()}"
    path = OUT / "inputs" / f"{key}.npy"
    if path.is_file():
        return np.load(path)
    from repro.datasets.drive import DriveConfig, generate_drive, scanner_for

    config = DriveConfig(
        n_frames=n_frames,
        target_points=n_points,
        scene_seed=scene_seed,
        scanner=scanner_for(n_points),
    )
    frames = [frame.cloud.xyz for frame in generate_drive(config, seed=seed)]
    short = [len(f) for f in frames if len(f) != n_points]
    if short:
        raise RuntimeError(
            f"drive seed={seed} scene={scene_seed} yielded frames of "
            f"{short} points, need {n_points}"
        )
    out = np.ascontiguousarray(np.stack(frames), dtype=np.float64)
    _save_atomic(path, out)
    return out


def _save_atomic(path: Path, array: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        np.save(handle, array)
    os.replace(tmp, path)


def sha256(*arrays: np.ndarray) -> str:
    """Digest of the given input arrays, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()
