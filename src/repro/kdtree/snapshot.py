"""Unified flat-tree snapshot handle: one format, two transports.

A :class:`Snapshot` is the portable form of a
:class:`~repro.kdtree.engine.FlatKdTree`: the structural arrays of the
engine's structure-of-arrays layout, plus caller-owned side arrays
(``extras`` — the serve layer stores each shard's global point ids
this way), under a versioned header.  It is the single currency every
snapshot path consumes:

* **disk** — :meth:`Snapshot.save` / :meth:`Snapshot.load` write and
  read one ``.npz`` file.  A node-and-pointer
  :class:`~repro.kdtree.node.KdTree` is saved as the same file
  (:func:`save_tree`, its flat view) and loaded back through
  :meth:`KdTree.from_flat <repro.kdtree.node.KdTree.from_flat>`
  (:func:`load_tree`).
* **shared memory** — :meth:`Snapshot.to_payload` flattens the
  snapshot into one ``{name: array}`` dict that
  :mod:`repro.serve.shm` lays out in a ``multiprocessing.shared_memory``
  segment; :meth:`Snapshot.from_payload` reassembles the handle from
  the zero-copy views a worker process attaches.

The round trip is bit-identical array for array in both transports:
the arrays are stored verbatim, and the lazy selection-stage artifacts
of :class:`FlatKdTree` are derived, never serialized.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.kdtree.engine import FlatKdTree
from repro.kdtree.node import KdTree

#: Version stamped into every payload header.
FORMAT_VERSION = 1

#: Header key carrying the format version.
_VERSION_KEY = "flat_version"

#: The structural arrays of a FlatKdTree, in constructor order.
FLAT_FIELDS = (
    "points",
    "dim",
    "threshold",
    "left",
    "right",
    "is_leaf",
    "bucket_id",
    "bucket_offsets",
    "bucket_members",
)

#: Prefix namespacing caller-supplied side arrays in a payload.
EXTRA_PREFIX = "extra_"


@dataclass(frozen=True)
class Snapshot:
    """A serialized-form flat k-d tree plus caller-owned side arrays.

    ``arrays`` maps every name in :data:`FLAT_FIELDS` to its array;
    ``extras`` carries side data (name-spaced on the wire with
    ``extra_``).  Instances are cheap handles over the arrays — no
    copies are taken on construction, so a snapshot built from
    shared-memory views stays zero-copy until the engine derives its
    query-stage artifacts.
    """

    arrays: dict[str, np.ndarray]
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    version: int = FORMAT_VERSION

    def __post_init__(self):
        missing = [name for name in FLAT_FIELDS if name not in self.arrays]
        if missing:
            raise ValueError(f"snapshot is missing structural arrays {missing}")
        for name in self.extras:
            if name in FLAT_FIELDS or name == _VERSION_KEY:
                raise ValueError(
                    f"extra array name {name!r} collides with a structural field"
                )

    # -- construction --------------------------------------------------
    @classmethod
    def from_flat(
        cls, flat: FlatKdTree, *, extra: dict[str, np.ndarray] | None = None
    ) -> "Snapshot":
        """Capture a queryable tree (structural arrays only, no copies)."""
        arrays = {name: getattr(flat, name) for name in FLAT_FIELDS}
        extras = {name: np.asarray(value) for name, value in (extra or {}).items()}
        return cls(arrays=arrays, extras=extras)

    def to_flat(self) -> FlatKdTree:
        """Reassemble the queryable engine tree over these arrays."""
        return FlatKdTree.from_arrays(**{n: self.arrays[n] for n in FLAT_FIELDS})

    # -- flat payload (the wire format both transports share) ----------
    def to_payload(self) -> dict[str, np.ndarray]:
        """One flat ``{name: array}`` dict: header + fields + extras."""
        payload = {_VERSION_KEY: np.array([self.version], dtype=np.int64)}
        payload.update({name: self.arrays[name] for name in FLAT_FIELDS})
        for name, value in self.extras.items():
            payload[EXTRA_PREFIX + name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, np.ndarray]) -> "Snapshot":
        """Inverse of :meth:`to_payload`; validates the version header."""
        if _VERSION_KEY not in payload:
            raise ValueError("payload has no snapshot version header")
        version = int(np.asarray(payload[_VERSION_KEY]).ravel()[0])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported flat tree format version {version}")
        arrays = {n: payload[n] for n in FLAT_FIELDS if n in payload}
        extras = {
            key[len(EXTRA_PREFIX):]: value
            for key, value in payload.items()
            if key.startswith(EXTRA_PREFIX)
        }
        return cls(arrays=arrays, extras=extras, version=version)

    # -- disk transport ------------------------------------------------
    def save(self, path: str | Path | io.IOBase, *, compressed: bool = True) -> None:
        """Write the ``.npz`` snapshot file (or writable binary stream).

        ``compressed=False`` stores the members raw (``np.savez``), the
        layout :meth:`load` can memory-map — the blocked index stores
        its per-block trees this way so a query pages in only the
        arrays it touches.
        """
        writer = np.savez_compressed if compressed else np.savez
        writer(path, **self.to_payload())

    @classmethod
    def load(
        cls, path: str | Path | io.IOBase, *, mmap_mode: str | None = None
    ) -> "Snapshot":
        """Read a snapshot written by :meth:`save`.

        ``mmap_mode`` (default ``None``: read everything eagerly, the
        historical behavior) opts into lazy page-in: ``"r"`` maps each
        array read-only over the file, ``"c"`` copy-on-write.  Mapping
        requires an uncompressed snapshot (``save(compressed=False)``)
        and a real filesystem path — ``np.load`` itself silently
        ignores ``mmap_mode`` for zip archives, so this path parses the
        archive and maps each stored member in place.  Arrays are
        bit-identical to an eager load either way.
        """
        if mmap_mode is None:
            with np.load(path) as payload:
                return cls.from_payload(
                    {key: payload[key] for key in payload.files}
                )
        return cls.from_payload(_mmap_npz_payload(path, mmap_mode))

    # -- introspection -------------------------------------------------
    @property
    def is_mapped(self) -> bool:
        """True when the arrays are memory-mapped views over a file."""
        return any(
            isinstance(getattr(a, "base", None), np.memmap)
            for a in self.arrays.values()
        )

    @property
    def n_points(self) -> int:
        return int(self.arrays["points"].shape[0])

    @property
    def nbytes(self) -> int:
        """Total payload bytes (what a shared-memory segment must hold)."""
        return sum(a.nbytes for a in self.to_payload().values())


def save_tree(tree: KdTree, path: str | Path | io.IOBase) -> None:
    """Write ``tree`` as the snapshot of its flat view (file or stream)."""
    Snapshot.from_flat(tree.flat()).save(path)


def load_tree(path: str | Path | io.IOBase) -> KdTree:
    """Read a snapshot file back as a node tree."""
    return KdTree.from_flat(Snapshot.load(path).to_flat())


#: Local-file-header prelude of a zip member: fixed 30 bytes, then the
#: file name and the (local, possibly distinct from central) extra field.
_ZIP_LOCAL_MAGIC = b"PK\x03\x04"
_ZIP_LOCAL_FIXED = 30


def _mmap_npz_payload(path, mmap_mode: str) -> dict[str, np.ndarray]:
    """Map every member of an *uncompressed* ``.npz`` in place.

    One ``np.memmap`` spans the archive; each stored member's ``.npy``
    header is parsed to find its data offset, and the returned arrays
    are zero-copy views at those offsets.  The views keep the mapping
    alive through their ``base`` chain, so no handle management is
    needed — the file unmaps when the last array is garbage collected.
    """
    import zipfile

    if mmap_mode not in ("r", "c"):
        raise ValueError(
            f"mmap_mode must be 'r' (read-only) or 'c' (copy-on-write), "
            f"got {mmap_mode!r}"
        )
    if isinstance(path, io.IOBase):
        raise TypeError("mmap_mode requires a filesystem path, not a stream")
    path = Path(path)
    mapped = np.memmap(path, dtype=np.uint8, mode=mmap_mode)
    payload: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(
                    f"{path}: member {info.filename!r} is compressed; "
                    "mmap_mode needs an uncompressed snapshot — re-save "
                    "with Snapshot.save(path, compressed=False)"
                )
            raw.seek(info.header_offset)
            local = raw.read(_ZIP_LOCAL_FIXED)
            if local[: len(_ZIP_LOCAL_MAGIC)] != _ZIP_LOCAL_MAGIC:
                raise ValueError(f"{path}: corrupt zip local header")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            raw.seek(info.header_offset + _ZIP_LOCAL_FIXED + name_len + extra_len)
            version = np.lib.format.read_magic(raw)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
            else:  # pragma: no cover - no writer emits 3.0 for these dtypes
                raise ValueError(
                    f"{path}: unsupported .npy format version {version}"
                )
            if dtype.hasobject:
                raise ValueError(f"{path}: cannot map object arrays")
            key = info.filename.removesuffix(".npy")
            payload[key] = np.ndarray(
                shape,
                dtype=dtype,
                buffer=mapped,
                offset=raw.tell(),
                order="F" if fortran else "C",
            )
    return payload
