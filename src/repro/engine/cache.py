"""Stage 3 of the affinity engine: content-addressed artifact caching.

Affinity matrices are the expensive product of step 1 and are pure
functions of (images, backbone config, extraction knobs).  The cache
keys every artifact by a SHA-256 over exactly those inputs, so

* re-running an experiment with identical inputs is a disk load;
* changing *any* input (one pixel, ``top_z``, the VGG seed) changes the
  key and misses — no invalidation logic, no stale reads.

Every entry is one uncompressed ``.npz`` bundle of named arrays, and
:class:`ArtifactCache` is the only code that writes, reads, evicts or
counts one.  Callers hand it arrays (affinity matrices through
:meth:`repro.core.affinity.AffinityMatrix.arrays`) and read back through
a ``parse`` function that rebuilds their value; an entry that cannot be
read, or whose arrays the parse rejects, is evicted and counted as a
miss.  Hits, misses and evictions are counted only in the metrics
registry (``goggles_cache_*``).

Entries that earlier versions wrote zlib-compressed still load: their
keys and file names are the same, and ``np.load`` reads both formats.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import weakref
import zipfile
from typing import Callable, TypeVar

import numpy as np

from repro.core.affinity import AffinityMatrix, SparseAffinityMatrix, densify_topk_rows
from repro.obs import default_registry

# A cache read must never be able to crash a run: any unreadable or
# internally inconsistent artifact (truncated download, disk-full
# write from a foreign tool, schema drift) is treated as a miss and
# evicted so the entry is rebuilt.
_CORRUPT_ERRORS = (zipfile.BadZipFile, OSError, KeyError, ValueError, EOFError)

T = TypeVar("T")

__all__ = ["ArtifactCache", "MemmapBlockStore", "hash_arrays", "hash_params"]


def hash_arrays(*arrays: np.ndarray) -> str:
    """Stable content hash of arrays (dtype + shape + C-order bytes)."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.data)  # the buffer itself: no copy to hash
    return digest.hexdigest()


def hash_params(params: dict[str, object]) -> str:
    """Stable hash of a flat parameter mapping (sorted key=value reprs)."""
    material = ";".join(f"{key}={params[key]!r}" for key in sorted(params))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ArtifactCache:
    """A content-addressed on-disk store for engine artifacts.

    Entries live under ``cache_dir`` as ``{kind}-{key[:24]}.npz``; the
    key is supplied by the caller via :meth:`key` so that every byte of
    input provenance (data hash + parameter hash) is part of the
    address.

    ``max_bytes`` sets a size budget for the directory: whenever a
    write pushes the total ``.npz`` footprint above the budget, the
    least-recently-used entries (by mtime; reads refresh it) are
    evicted oldest-first until the directory fits again.  The entry
    just written is never evicted, even if it alone exceeds the budget.

    Concurrency contract: the cache directory may be shared by many
    threads *and processes* (the tenant threads of one server share
    its cache, and separate processes may point at one
    ``--cache-dir``).  Writes are publish-by-rename: each writer
    streams into its own unique ``*.tmp`` scratch file (invisible to
    entry listing, eviction, and ``total_bytes``) and atomically
    ``os.replace``-s it into place, so a reader — or the eviction scan
    racing a concurrent write — can only ever observe a complete entry
    or a miss, never a half-written one.  Pin counts and the eviction
    walk are additionally serialised by a lock.

    Hits and misses (by kind) and evictions are counted in the
    process-wide metrics registry under this instance's ``tenant``
    label, and nowhere else.
    """

    def __init__(self, cache_dir: str, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.cache_dir = str(cache_dir)
        self.max_bytes = max_bytes
        os.makedirs(self.cache_dir, exist_ok=True)
        # The directory may be shared across tenants (content addressing
        # prevents collisions); the metric label attributes traffic to
        # whichever tenant this *instance* serves.  Mutable: the tenant
        # registry stamps it right after the owning engine is built.
        self.tenant = "default"
        # Get-or-create is idempotent, so every cache in the process
        # feeds the same Prometheus families (totals across instances).
        registry = default_registry()
        self._m_hits = registry.counter(
            "goggles_cache_hits_total", "Artifact cache hits, by artifact kind and tenant.",
            labelnames=("kind", "tenant"),
        )
        self._m_misses = registry.counter(
            "goggles_cache_misses_total", "Artifact cache misses, by artifact kind and tenant.",
            labelnames=("kind", "tenant"),
        )
        self._m_evictions = registry.counter(
            "goggles_cache_evictions_total", "Artifact cache entries evicted (LRU budget or deferred).",
            labelnames=("tenant",),
        )
        self._m_pins = registry.counter(
            "goggles_cache_pins_total", "Memmap pin acquisitions (live readers registered).",
            labelnames=("tenant",),
        )
        self._m_unpins = registry.counter(
            "goggles_cache_unpins_total", "Memmap pin releases.",
            labelnames=("tenant",),
        )
        self._lock = threading.RLock()
        # Memmap refcounts: a path with a positive pin count has live
        # readers whose pages are backed by the file — eviction of a
        # pinned path is *deferred* (recorded, re-attempted at unpin)
        # rather than deleting the file out from under the mapping.
        self._pins: dict[str, int] = {}
        self._deferred: set[str] = set()

    def _record(self, kind: str, hit: bool) -> None:
        (self._m_hits if hit else self._m_misses).inc(kind=kind, tenant=self.tenant)

    def key(self, data_hash: str, params: dict[str, object]) -> str:
        """Combine a data hash and a parameter mapping into one address."""
        return hashlib.sha256(f"{data_hash}|{hash_params(params)}".encode()).hexdigest()

    def path(self, kind: str, key: str) -> str:
        return os.path.join(self.cache_dir, f"{kind}-{key[:24]}.npz")

    # ------------------------------------------------------------------
    # Entries.  Each public method is one call of _read or _write, so a
    # traced read or write is one span.
    # ------------------------------------------------------------------
    def load_arrays(self, kind: str, key: str, parse: Callable[[dict[str, np.ndarray]], T]) -> T | None:
        """``parse`` of the arrays stored under (kind, key), or ``None``.

        ``parse`` raises ``KeyError`` or ``ValueError`` on arrays it
        cannot use (schema drift, a foreign file); the entry is then
        evicted and the read is a miss.
        """
        return self._read(kind, key, parse)

    def save_arrays(self, kind: str, key: str, arrays: dict[str, np.ndarray]) -> str:
        return self._write(kind, key, arrays)

    def load_affinity(self, key: str) -> AffinityMatrix | None:
        return self._read("affinity", key, AffinityMatrix.from_arrays)

    def save_affinity(self, key: str, matrix: AffinityMatrix) -> str:
        return self._write("affinity", key, matrix.arrays())

    def load_affinity_csr(self, key: str) -> SparseAffinityMatrix | None:
        return self._read("affinity-csr", key, SparseAffinityMatrix.from_arrays)

    def save_affinity_csr(self, key: str, sparse: SparseAffinityMatrix) -> str:
        return self._write("affinity-csr", key, sparse.arrays())

    def _read(self, kind: str, key: str, parse: Callable[[dict[str, np.ndarray]], T]) -> T | None:
        """Load every array of one entry and return ``parse`` of them.

        A missing entry is a miss.  An unreadable one, or one whose
        arrays ``parse`` rejects, is evicted and is a miss too, so the
        caller rebuilds it.
        """
        path = self.path(kind, key)
        if not os.path.exists(path):
            self._record(kind, hit=False)
            return None
        try:
            with np.load(path) as data:
                stored = {name: data[name] for name in data.files}
            value = parse(stored)
        except _CORRUPT_ERRORS:
            self._evict_corrupt(path)
            self._record(kind, hit=False)
            return None
        self._record(kind, hit=True)
        self._touch(path)
        return value

    def _write(self, kind: str, key: str, arrays: dict[str, np.ndarray]) -> str:
        """Publish one entry, an uncompressed ``.npz``; returns its path.

        Uncompressed, because zlib cost far more than the disk it saved:
        at N=320 it took a cold cached ``label`` from ~2.3 s to ~8.3 s
        to make the entries ~20% smaller.

        The arrays go into a scratch file unique to this call
        (``mkstemp``), so concurrent writers of the *same* key — two
        tenants caching the same corpus — never interleave bytes.
        It is suffixed ``.tmp``, not ``.npz``, so an in-progress write is
        invisible to :meth:`_entries`: never evicted mid-write, never
        counted against the budget.  Writing through the open handle
        keeps numpy from appending ``.npz`` to that name.  The rename
        into place is atomic: readers never see a partial file.
        """
        path = self.path(kind, key)
        fd, tmp = tempfile.mkstemp(prefix=f"{kind}-", suffix=".tmp", dir=self.cache_dir)
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, path)
        except BaseException:
            self._evict_corrupt(tmp)
            raise
        self._enforce_budget(keep=path)
        return path

    # ------------------------------------------------------------------
    # Memmap pinning (refcounted deferral of eviction for live readers)
    # ------------------------------------------------------------------
    def pin(self, path: str) -> None:
        """Register a live reader of ``path``; eviction is deferred."""
        with self._lock:
            self._pins[path] = self._pins.get(path, 0) + 1
        self._m_pins.inc(tenant=self.tenant)

    def unpin(self, path: str) -> None:
        """Drop one reader; the last unpin applies any deferred eviction."""
        self._m_unpins.inc(tenant=self.tenant)
        with self._lock:
            count = self._pins.get(path, 0) - 1
            if count > 0:
                self._pins[path] = count
                return
            self._pins.pop(path, None)
            if path in self._deferred:
                self._deferred.discard(path)
                self._evict_corrupt(path)
                self._m_evictions.inc(tenant=self.tenant)

    def pinned(self, path: str) -> bool:
        with self._lock:
            return self._pins.get(path, 0) > 0

    def _evict_corrupt(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - racing eviction is fine
            pass

    # ------------------------------------------------------------------
    # Size budget (LRU eviction)
    # ------------------------------------------------------------------
    def _touch(self, path: str) -> None:
        """Refresh mtime on a hit so LRU eviction spares hot entries."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - read-only cache dirs are fine
            pass

    def total_bytes(self) -> int:
        """Current artifact footprint (``.npz`` + ``.npy``) of the cache."""
        return sum(size for _, size, _ in self._entries())

    def _entries(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) of every artifact, oldest first.

        ``.npz`` bundles and the raw ``.npy`` memmap blocks both count:
        materialised dense blocks are by far the largest artifacts, so
        a budget that ignored them would be fiction.
        """
        entries: list[tuple[float, int, str]] = []
        for name in os.listdir(self.cache_dir):
            if not name.endswith((".npz", ".npy")):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                stat = os.stat(path)
            except OSError:  # pragma: no cover - racing eviction is fine
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        return entries

    def _enforce_budget(self, keep: str) -> None:
        """Evict least-recently-used entries until the budget holds.

        ``keep`` — the path just written — is exempt: evicting the
        artifact the caller is about to rely on would turn every
        over-budget write into a guaranteed miss.
        """
        if self.max_bytes is None:
            return
        with self._lock:
            entries = self._entries()
            total = sum(size for _, size, _ in entries)
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                if path == keep:
                    continue
                if self._pins.get(path, 0) > 0:
                    # A live memmap reader holds this file open; deleting
                    # it now would yank pages out from under the mapping.
                    # Count it as freed (the reader owns the bytes now)
                    # and actually remove it at the final unpin.
                    self._deferred.add(path)
                    total -= size
                    continue
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - racing eviction is fine
                    continue
                total -= size
                self._m_evictions.inc(tenant=self.tenant)

    def clear(self) -> int:
        """Delete every cached artifact; returns the number removed.

        Also sweeps ``.tmp`` scratch files orphaned by crashed writers
        (they are never listed as entries, but they do occupy disk).
        Tolerates entries vanishing between the listing and the remove
        — a concurrent eviction or clear() got there first.
        """
        removed = 0
        with self._lock:
            for name in os.listdir(self.cache_dir):
                path = os.path.join(self.cache_dir, name)
                if name.endswith((".npz", ".npy")):
                    if self._pins.get(path, 0) > 0:
                        self._deferred.add(path)
                        continue
                    try:
                        os.remove(path)
                    except OSError:
                        continue  # racing eviction/clear already took it
                    removed += 1
                elif name.endswith(".tmp"):
                    self._evict_corrupt(path)
        return removed


class MemmapBlockStore:
    """Out-of-core densified blocks for a :class:`SparseAffinityMatrix`.

    ``SparseAffinityMatrix.block(f)`` normally densifies into a fresh
    in-RAM array — an N×N allocation per call.  Attaching a block store
    (``sparse.with_store(MemmapBlockStore(...))``) changes that: each
    block is materialised *once* to an ``.npy`` file (written row-tiled,
    so peak RAM stays at one row tile, never a full block) and every
    subsequent access returns a read-only ``np.memmap`` whose pages the
    OS fetches — and drops — on demand.  N can exceed RAM.

    Lifecycle: files are published by the cache's rename discipline
    (mkstemp ``.tmp`` scratch → atomic ``os.replace``), live under the
    artifact cache as kind ``affinity-block`` when one is supplied (a
    throwaway temp directory otherwise), and are pinned for as long as
    any returned memmap is alive — the cache defers eviction of pinned
    blocks instead of deleting pages out from under a live reader
    (`weakref.finalize` drops the pin when the mapping is collected).
    """

    _ROW_TILE = 1024

    def __init__(self, cache: ArtifactCache | None = None, base_key: str = ""):
        self.cache = cache
        self.base_key = base_key
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if cache is not None:
            self.directory = cache.cache_dir
        else:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="affinity-blocks-")
            self.directory = self._tmpdir.name

    def _path(self, sparse: SparseAffinityMatrix, f: int) -> str:
        base = self.base_key or sparse.content_hash()
        # One un-hyphenated trailing token: ``cache-info`` derives the
        # kind by splitting on the last hyphen, so this files under
        # "affinity-block" alongside the ``.npz`` kinds.
        return os.path.join(self.directory, f"affinity-block-{base[:16]}{f:03d}.npy")

    def block(self, sparse: SparseAffinityMatrix, f: int) -> np.ndarray:
        """A read-only memmap of block ``f``, materialising on first use."""
        path = self._path(sparse, f)
        for attempt in (0, 1):
            if not os.path.exists(path):
                self._materialise(sparse, f, path)
            try:
                mm = np.load(path, mmap_mode="r")
                if mm.shape != (sparse.n_examples, sparse.n_examples) or mm.dtype != sparse.dtype:
                    raise ValueError(f"stale memmap block at {path!r}")
            except _CORRUPT_ERRORS:
                # Corrupt or vanished between the existence check and the
                # open (eviction race, foreign truncation): rebuild once.
                try:
                    os.remove(path)
                except OSError:
                    pass
                if attempt:
                    raise
                continue
            if self.cache is not None:
                self.cache.pin(path)
                weakref.finalize(mm, self.cache.unpin, path)
            return mm
        raise RuntimeError(f"unreachable: memmap block retry fell through for {path!r}")

    def _materialise(self, sparse: SparseAffinityMatrix, f: int, path: str) -> None:
        n = sparse.n_examples
        fd, tmp = tempfile.mkstemp(prefix="affinity-block-", suffix=".tmp", dir=self.directory)
        os.close(fd)
        try:
            mm = np.lib.format.open_memmap(tmp, mode="w+", dtype=sparse.dtype, shape=(n, n))
            data, indices = sparse.data[f], sparse.indices[f]
            fill = sparse.fill[f]
            for r0 in range(0, n, self._ROW_TILE):
                r1 = min(n, r0 + self._ROW_TILE)
                densify_topk_rows(data[r0:r1], indices[r0:r1], fill[r0:r1], n, out=mm[r0:r1])
            mm.flush()
            del mm
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        if self.cache is not None:
            self.cache._enforce_budget(keep=path)
