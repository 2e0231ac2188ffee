"""Correctness gate: compare a run's outputs with recorded references.

Every simulated point is identified by a content key and judged by a
digest of its metrics, never by ``RunManifest.digest()`` (that one
hashes the git revision, so it changes on every commit):

* export points: the manifest's ``metrics_digest``;
* design-sweep points: ``registry_from_result(result).digest()``;
* observed runs: the SHA-256 of the serialized Chrome trace.

A point that is missing, failed, or digests differently from the
reference counts as one failure.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Section VI claims the full evaluation must hold.
CLAIMS = 12


def export_point_key(manifest: Dict[str, object]) -> str:
    """Content key of one export manifest (the result-store key)."""
    return "/".join(str(manifest[f]) for f in (
        "arch", "workload", "matrix", "config_key", "reorder", "block_size"))


def export_digests(doc: Dict[str, object]) -> Dict[str, Optional[str]]:
    """Point key -> metrics digest for every manifest of an export
    document (``None`` for points that failed)."""
    return {
        export_point_key(m): (m["metrics_digest"] if m["status"] != "failed" else None)
        for m in doc["manifests"]
    }


def claims_held(doc: Dict[str, object]) -> int:
    return sum(bool(c["holds"]) for c in doc["summary"])


def sweep_point_key(workload: str, matrix: str, index: int) -> str:
    """Key of design-sweep point ``index`` (canonical grid order) of one pair."""
    return f"{workload}/{matrix}/{index}"


def load_reference(section: str, path: Path = REFERENCE) -> Dict[str, str]:
    """One flat ``key -> digest`` section of the reference file.

    The sweep section is stored per pair as a list in canonical grid
    order and flattened here to :func:`sweep_point_key` keys.
    """
    doc = json.loads(path.read_text())[section]
    if section != "sweep":
        return doc
    return {
        sweep_point_key(*pair.split("/"), i): digest
        for pair, digests in doc.items()
        for i, digest in enumerate(digests)
    }


def check(
    observed: Dict[str, Optional[str]],
    reference: Dict[str, str],
    require_all: bool = True,
) -> Tuple[int, int, List[str]]:
    """Compare observed digests with the reference.

    Returns ``(attempted, failed, mismatched keys)``. With
    ``require_all`` a reference point the run did not produce counts
    as attempted and failed; without it (subset runs) only the
    produced points are judged.
    """
    bad = [k for k, d in observed.items() if d is None or reference.get(k) != d]
    attempted = len(observed)
    if require_all:
        missing = sorted(set(reference) - set(observed))
        bad += missing
        attempted += len(missing)
    return attempted, len(bad), sorted(bad)


def nest_sweep(flat: Dict[str, str]) -> Dict[str, List[str]]:
    """Inverse of the sweep flattening in :func:`load_reference`."""
    nested: Dict[str, List[Tuple[int, str]]] = {}
    for key, digest in flat.items():
        workload, matrix, index = key.split("/")
        nested.setdefault(f"{workload}/{matrix}", []).append((int(index), digest))
    return {pair: [d for _, d in sorted(items)] for pair, items in sorted(nested.items())}


def merge_reference(sections: Iterable[Tuple[str, Dict[str, str]]],
                    path: Path = REFERENCE) -> None:
    """Write (or update) reference sections, sweep points nested."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    for section, flat in sections:
        doc[section] = nest_sweep(flat) if section == "sweep" else dict(sorted(flat.items()))
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
