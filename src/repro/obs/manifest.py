"""Run manifests: who produced a result, from what, and when.

Every simulated (or cache-served) result can carry a
:class:`RunManifest` recording the configuration content hash
(:meth:`SparsepipeConfig.cache_key`), the preprocessing knobs, the
seed, the git revision of the producing tree, the
:func:`~repro.engine.cache.code_digest` of the result-producing source
(``code_version``), a digest of the run's
metrics, and the wall-clock time spent producing it. Manifests make
cached and fresh results distinguishable (``from_cache``) and
auditable: two manifests with equal :meth:`~RunManifest.digest` came
from the same code, configuration, and measured behavior.

The digest covers only the *stable* fields — wall-time and the
``from_cache`` flag are recorded but excluded — so a rerun of the same
configuration produces an identical digest, which is exactly the
determinism contract the test suite locks.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, registry_from_result

#: Manifest wire-format version; bump on incompatible field changes.
MANIFEST_SCHEMA = 1

_GIT_REV: Optional[str] = None
_GIT_REV_PROBED = False


def git_revision() -> Optional[str]:
    """Short git revision of the source tree, ``None`` outside a
    checkout (or without a ``git`` binary). Probed once per process."""
    global _GIT_REV, _GIT_REV_PROBED
    if not _GIT_REV_PROBED:
        _GIT_REV_PROBED = True
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True, text=True, timeout=5,
            )
            _GIT_REV = out.stdout.strip() or None if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            _GIT_REV = None
    return _GIT_REV


@dataclass(frozen=True)
class RunManifest:
    """Provenance record attached to one simulation result."""

    arch: str
    workload: str
    matrix: str
    config_key: str                   #: SparsepipeConfig.cache_key()
    reorder: Optional[str]
    block_size: Optional[int]
    code_version: str                 #: repro.engine.cache.code_digest()
    metrics_digest: str
    seed: Optional[int] = None
    git_rev: Optional[str] = None
    wall_time_s: Optional[float] = None
    from_cache: bool = False
    #: How the point got its result: ``"ok"`` (clean first attempt),
    #: ``"retried"`` (succeeded after SP601/SP602 degradation), or
    #: ``"failed"`` (exhausted its attempts; no result exists and
    #: ``metrics_digest`` is empty). Partial sweeps are first-class:
    #: failed points keep a manifest even though they have no result.
    status: str = "ok"
    #: SP6xx fault records (:meth:`repro.errors.Diagnostic.as_dict`
    #: dicts) behind a non-``"ok"`` status — pool breaks, retries,
    #: quarantined cache entries, injected faults.
    faults: Tuple[Dict[str, object], ...] = ()
    schema: int = MANIFEST_SCHEMA

    #: Fields excluded from the deterministic digest: measurement
    #: noise and serving/failure provenance, not run identity — a
    #: sweep that survived a worker death must digest identically to
    #: an undisturbed one.
    _UNSTABLE = ("wall_time_s", "from_cache", "status", "faults")

    def _plain(self) -> Tuple[Dict[str, object], str]:
        """``asdict(self)`` and the digest, built once and kept: the
        instance is frozen, and every result's manifest is serialized
        more than once (the result store, the export). Instances made
        by ``replace()`` start without the memo."""
        memo = self.__dict__.get("_plain_memo")
        if memo is None:
            doc = asdict(self)
            stable = {k: v for k, v in doc.items() if k not in self._UNSTABLE}
            text = json.dumps(stable, sort_keys=True)
            memo = (doc, hashlib.sha256(text.encode("utf-8")).hexdigest()[:16])
            object.__setattr__(self, "_plain_memo", memo)
        return memo

    def _fresh_dict(self) -> Dict[str, object]:
        """A copy of the memoized plain dict that callers may mutate."""
        doc = dict(self._plain()[0])
        doc["faults"] = tuple(dict(f) for f in doc["faults"])
        return doc

    def stable_dict(self) -> Dict[str, object]:
        """Every identity-bearing field, JSON-plain."""
        doc = self._fresh_dict()
        for field in self._UNSTABLE:
            doc.pop(field, None)
        return doc

    def digest(self) -> str:
        """Deterministic content hash over the stable fields."""
        return self._plain()[1]

    def to_dict(self) -> Dict[str, object]:
        """Full JSON representation (includes the digest for auditing)."""
        doc = self._fresh_dict()
        doc["digest"] = self.digest()
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "RunManifest":
        doc = {k: v for k, v in doc.items() if k != "digest"}
        # JSON round-trips tuples as lists; restore the frozen form.
        doc["faults"] = tuple(dict(f) for f in doc.get("faults", ()))
        return cls(**doc)

    def served_from_cache(self) -> "RunManifest":
        """This manifest, marked as a cache hit (digest unchanged)."""
        return replace(self, from_cache=True)


def build_manifest(
    arch: str,
    workload: str,
    matrix: str,
    config,
    reorder: Optional[str],
    block_size: Optional[int],
    result=None,
    registry: Optional[MetricsRegistry] = None,
    seed: Optional[int] = None,
    wall_time_s: Optional[float] = None,
    from_cache: bool = False,
    status: str = "ok",
    faults: Sequence[Dict[str, object]] = (),
) -> RunManifest:
    """Assemble the manifest for one run.

    The metrics digest comes from ``registry`` when the caller already
    accumulated one (e.g. a :class:`~repro.obs.metrics.MetricsObserver`
    run), else is derived from ``result`` through
    :func:`registry_from_result` — one of the two must be given,
    except for ``status="failed"`` manifests, which have no result to
    digest.
    """
    if registry is None and status != "failed":
        if result is None:
            raise ValueError("build_manifest needs a result or a registry")
        registry = registry_from_result(result)
    from repro.engine.cache import code_digest  # lazy: cache imports us

    return RunManifest(
        arch=str(arch),
        workload=str(workload),
        matrix=str(matrix),
        config_key=config.cache_key() if hasattr(config, "cache_key") else str(config),
        reorder=reorder,
        block_size=block_size,
        code_version=code_digest(),
        metrics_digest="" if registry is None else registry.digest(),
        seed=seed,
        git_rev=git_revision(),
        wall_time_s=wall_time_s,
        from_cache=from_cache,
        status=status,
        faults=tuple(dict(f) for f in faults),
    )


class Stopwatch:
    """Tiny wall-clock timer for manifest ``wall_time_s`` fields."""

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
