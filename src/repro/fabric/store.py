"""Shared, content-addressed result store.

One JSON artifact per executed cell, named by the cell's content key
(:meth:`ExperimentSpec.cell_key`) — the sweep-result analogue of the
trace cache's ``<key>.bin2``/``<key>.json`` entries, with the same
write discipline: every artifact is published via tmp-file +
``os.replace`` (:mod:`repro.common.atomicio`), so concurrent workers
storing the same key race benignly and readers never see a torn file
under a final name.

Reads *validate* before trusting: an artifact that fails to parse or
carries the wrong format/key is treated as a miss and healed by
unlinking it — as the trace cache turns a rejected entry into a miss
that is regenerated — so a corrupted shared mount degrades to
recomputation, never to wrong results.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Dict, List, Optional

from repro.common.atomicio import read_json, write_json_atomic
from repro.fabric.layout import PathLike

#: Bump when the artifact layout changes; mismatched artifacts read
#: as misses (and are healed), never as results.
STORE_FORMAT = 1


class ResultStore:
    """Raw cell results under one directory, keyed by content hash."""

    def __init__(self, root: PathLike):
        self.root = pathlib.Path(root)

    def path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        records: List[Dict[str, Any]],
        processed: int,
        cell: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Atomically publish one cell's raw records under ``key``."""
        self.root.mkdir(parents=True, exist_ok=True)
        write_json_atomic(
            self.path(key),
            {
                "format": STORE_FORMAT,
                "key": key,
                "records": records,
                "processed": processed,
                "cell": cell or {},
            },
        )

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The artifact for ``key``, or None — torn artifacts heal.

        Validation is the miss test: unparsable JSON, a format bump,
        a key mismatch (artifact copied under the wrong name), or a
        missing records list all read as "not stored".  Invalid files
        are unlinked so the next writer's clean artifact isn't racing
        a corpse.
        """
        path = self.path(key)
        data = read_json(path)
        if (
            isinstance(data, dict)
            and data.get("format") == STORE_FORMAT
            and data.get("key") == key
            and isinstance(data.get("records"), list)
        ):
            return data
        if path.exists():
            try:
                os.unlink(path)
            except OSError:
                pass
        return None

    def has(self, key: str) -> bool:
        """Validating membership test (a torn artifact is absent)."""
        return self.get(key) is not None

    def keys(self) -> List[str]:
        """Every stored key (by filename; contents not validated)."""
        return sorted(path.stem for path in self.root.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())
