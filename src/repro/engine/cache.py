"""Persistent on-disk result store: one flat directory per code generation.

Repeated figure/benchmark runs re-simulate the identical 675-point
grid; this store makes warm reruns near-free. One JSON file per
simulated point, laid out as

``DIR/<code digest>/<arch>-<workload>-<matrix>-<key digest>.json``

where the key digest hashes ``(code digest, arch, workload, matrix,
config_key, reorder, block_size)``. ``config_key`` is
:meth:`SparsepipeConfig.cache_key` (a frozen content hash, never
``id()``); the **code digest** (:func:`code_digest`) is a SHA-256 over
the source of every module that can change a simulated number. Any
edit to a generator, a kernel, a workload or a simulator therefore
opens a fresh directory and every older entry becomes a miss: the
store cannot serve a result the current code would not produce.
Modules that only consume results (:data:`RESULT_CONSUMERS`: the
experiment drivers, observability, scheduling, resilience, the CLI)
are left out, so editing them keeps the store warm.

Matrix content is deliberately not hashed: the suite generators are
source and the code digest already covers them, while hashing
content would force a warm run to regenerate every matrix just to
find its key.

Pool workers and separate ``--cache DIR`` runs may share one store.
Every write goes through a per-process, per-write temp file (pid plus
a process-wide counter) and an atomic rename, so a concurrent reader
never observes a torn entry and no lock is needed.

Each entry stores its full key alongside the serialized
:class:`~repro.arch.stats.SimResult`, so hash collisions and
hand-edited files degrade to a miss, never a wrong result — and the
offending file is **quarantined** (moved under ``quarantine/`` beside
the entries, with an ``SP604`` diagnostic in
:attr:`ResultCache.diagnostics`), so a corrupt entry can never be
silently re-missed forever: the next ``put`` re-populates the slot.
Entries may also carry a :class:`~repro.obs.manifest.RunManifest`
recording the producing run's provenance; :meth:`ResultCache.get_entry`
returns it marked ``from_cache=True`` so served and fresh results stay
distinguishable. Pass a :class:`~repro.obs.metrics.MetricsRegistry` and
the store counts ``cache.hits`` / ``cache.misses``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.arch.stats import SimResult
from repro.errors import Diagnostic
from repro.obs.manifest import RunManifest
from repro.resilience.faults import maybe_corrupt_file

#: Distinguishes temp files of concurrent threads in one process.
_TMP_COUNTER = itertools.count()

#: The ``repro`` package directory the code digest hashes.
PACKAGE_DIR = Path(__file__).resolve().parent.parent

#: Package-relative paths (directories end in ``/``) of modules that
#: only consume results; editing them never changes a simulated number.
#: ``analysis/`` is not among them: the dataflow compiler calls
#: ``analysis.absint``.
RESULT_CONSUMERS = (
    "experiments/", "obs/", "scheduler/", "resilience/",
    "__main__.py", "testing.py",
)


def source_digest(package: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of every
    ``.py`` under ``package``, minus :data:`RESULT_CONSUMERS`."""
    sha = hashlib.sha256()
    for rel in sorted(p.relative_to(package).as_posix()
                      for p in package.rglob("*.py")):
        if rel.startswith(RESULT_CONSUMERS):
            continue
        sha.update(rel.encode("utf-8") + b"\0")
        sha.update((package / rel).read_bytes() + b"\0")
    return sha.hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """Digest of the installed result-producing source (computed once
    per process; names the store's generation directory)."""
    return source_digest(PACKAGE_DIR)


@dataclass(frozen=True)
class CacheEntry:
    """One cache hit: the result plus its (optional) run manifest."""

    result: SimResult
    manifest: Optional[RunManifest] = None


class ResultCache:
    """Flat directory of per-point SimResult JSON documents."""

    def __init__(self, root: Union[str, Path], metrics=None) -> None:
        self.root = Path(root)
        #: The generation directory; resolved at construction so tests
        #: can monkeypatch :func:`code_digest`.
        self.code_digest = code_digest()
        self.dir = self.root / self.code_digest
        self.quarantine_dir = self.dir / "quarantine"
        #: Optional MetricsRegistry (``cache.hits`` / ``cache.misses``).
        self.metrics = metrics
        self.dir.mkdir(parents=True, exist_ok=True)
        #: SP604 quarantine diagnostics since the last
        #: :meth:`pop_diagnostics` (consumers: ExperimentContext
        #: metrics / run manifests).
        self.diagnostics: List[Diagnostic] = []
        self._diag_lock = threading.Lock()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def quarantine_paths(self) -> List[Path]:
        """Every quarantined entry file of this generation."""
        return sorted(self.quarantine_dir.glob("*.json"))

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside so it misses exactly once, and
        record why."""
        dest = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
            path.replace(dest)
        except OSError:
            return  # racing reader already moved it; either outcome is a miss
        with self._diag_lock:
            self.diagnostics.append(Diagnostic.warning(
                "SP604", f"corrupt cache entry ({reason}) quarantined",
                str(dest),
            ))

    def pop_diagnostics(self) -> List[Diagnostic]:
        """Quarantine diagnostics accumulated so far (cleared on read)."""
        with self._diag_lock:
            out = list(self.diagnostics)
            self.diagnostics.clear()
        return out

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _entry(self, arch, workload, matrix, config_key, reorder, block_size):
        key = json.dumps([
            self.code_digest, str(arch), str(workload), str(matrix),
            str(config_key), str(reorder), str(block_size),
        ])
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        return self.dir / f"{arch}-{workload}-{matrix}-{digest}.json", key

    def get_entry(
        self, arch, workload, matrix, config_key, reorder, block_size
    ) -> Optional[CacheEntry]:
        """Cached result *with provenance* (``None`` on any kind of
        miss): the stored run manifest is returned marked
        ``from_cache=True`` (``None`` for manifest-less entries)."""
        path, key = self._entry(
            arch, workload, matrix, config_key, reorder, block_size
        )
        entry = self._read_entry(path, key)
        self._count("cache.misses" if entry is None else "cache.hits")
        return entry

    def _read_entry(self, path: Path, key: str) -> Optional[CacheEntry]:
        """One probe: read, validate, quarantine on corruption."""
        maybe_corrupt_file("cache.get", path.name, path)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None  # a plain miss, nothing to quarantine
        except OSError:
            self._quarantine(path, "unreadable file")
            return None
        try:
            doc = json.loads(text)
        except ValueError:
            self._quarantine(path, "unparseable JSON")
            return None
        if not isinstance(doc, dict) or doc.get("key") != key:
            self._quarantine(path, "key mismatch")
            return None
        try:
            result = SimResult.from_dict(doc["result"])
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, "undecodable result")
            return None
        manifest = None
        if doc.get("manifest") is not None:
            try:
                manifest = RunManifest.from_dict(
                    doc["manifest"]
                ).served_from_cache()
            except (KeyError, TypeError, ValueError):
                manifest = None  # auditing data is best-effort
        return CacheEntry(result=result, manifest=manifest)

    def put(
        self, arch, workload, matrix, config_key, reorder, block_size,
        result: SimResult, manifest: Optional[RunManifest] = None,
    ) -> Path:
        """Store one result; atomic against concurrent readers/writers."""
        path, key = self._entry(
            arch, workload, matrix, config_key, reorder, block_size
        )
        doc = {
            "key": key,
            "result": result.to_dict(),
            "manifest": None if manifest is None else manifest.to_dict(),
        }
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        )
        tmp.write_text(json.dumps(doc, sort_keys=True))
        tmp.replace(path)
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.dir.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry of every generation (and any ``*.tmp``
        debris crashed writers left behind, including trees of older
        store layouts); returns the number of entries removed.
        Quarantined corpses are kept for auditing."""
        n = 0
        for path in list(self.root.rglob("*")):
            if "quarantine" in path.relative_to(self.root).parts:
                continue
            if path.suffix not in (".json", ".tmp") or not path.is_file():
                continue
            try:
                path.unlink()
            except OSError:
                continue
            if path.suffix == ".json":
                n += 1
        return n
