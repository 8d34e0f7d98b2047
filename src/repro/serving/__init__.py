"""Read-only HTTP serving of stored disclosure releases.

The paper's deployment model is *disclose once, serve many*: the privacy
budget is spent when a release is produced, after which the multi-level
artefact can be handed to any number of consumers, each receiving exactly
the information level their access privilege entitles them to.  This package
is the serving half of that model — a dependency-light HTTP API (standard
library ``http.server`` only, no web framework) that loads releases from a
:class:`~repro.core.store.ReleaseStore`, resolves a caller's role through
:meth:`~repro.core.access.AccessPolicy.view_for`, and returns per-level
views as JSON.

No disclosure or pipeline code is imported anywhere in this package: the
request path can, by construction, never touch the privacy budget
(``tests/test_serving.py`` enforces this with an import audit).

Start a server from Python::

    from repro.serving import ReleaseServer
    server = ReleaseServer(store, policy, port=0).start()
    ...
    server.stop()

or from the command line with ``repro serve --store FILE.db --policy FILE``.
"""

from repro.exceptions import ServingError
from repro.serving.client import (
    DEFAULT_MAX_BODY_BYTES,
    ServedResponse,
    fetch_json,
    http_get,
    http_get_response,
)
from repro.serving.fleet import ServerFleet, format_config_line, reuseport_available
from repro.serving.respcache import (
    DEFAULT_RESPONSE_CACHE_SIZE,
    CachedResponse,
    ResponseCache,
    make_etag,
)
from repro.serving.server import (
    DEFAULT_CACHE_SIZE,
    ReleaseServer,
    ServingStats,
    create_server,
)
from repro.serving.staleness import StalenessIndex

__all__ = [
    "ReleaseServer",
    "ServerFleet",
    "ServingStats",
    "StalenessIndex",
    "ResponseCache",
    "CachedResponse",
    "ServedResponse",
    "create_server",
    "reuseport_available",
    "format_config_line",
    "make_etag",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_RESPONSE_CACHE_SIZE",
    "DEFAULT_MAX_BODY_BYTES",
    "http_get",
    "http_get_response",
    "fetch_json",
    "ServingError",
]
