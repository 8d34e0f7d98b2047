"""Store-backend parameterization helpers shared by the test suite.

Lives in its own uniquely-named module (not ``conftest.py``) because the
test and benchmark trees each have a ``conftest`` and a bare
``import conftest`` resolves to whichever directory pytest put on
``sys.path`` first.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional

from repro.core.store import ReleaseStore

#: Every store-backend kind the parameterized suites can target.  Both are
#: SqliteBackend, but a file and an in-memory (memdb) database open their
#: connections differently, so both stay under test.
STORE_BACKEND_KINDS = ("memory", "sqlite")


def store_backend_matrix(*kinds: str) -> List[str]:
    """The parameter list for backend-parameterized tests: ``kinds``, or
    every kind when none are named."""
    kinds = kinds or STORE_BACKEND_KINDS
    for kind in kinds:
        if kind not in STORE_BACKEND_KINDS:
            raise ValueError(f"unknown store backend kind {kind!r}")
    return list(kinds)


def make_release_store(
    kind: str,
    tmp_path: Path,
    cache_size: int = 0,
    clock: Optional[Callable[[], str]] = None,
) -> ReleaseStore:
    """One fresh :class:`ReleaseStore` of the requested backend kind.

    The SQLite store lands at ``tmp_path / "releases.db"``; the memory kind
    ignores the path.  Construction goes through the public
    ``ReleaseStore(root=...)`` path handling, so these stores exercise
    exactly what users get from a path.
    """
    if kind == "sqlite":
        return ReleaseStore(tmp_path / "releases.db", cache_size=cache_size, clock=clock)
    if kind == "memory":
        return ReleaseStore.in_memory(cache_size=cache_size)
    raise ValueError(f"unknown store backend kind {kind!r}")
