#!/usr/bin/env python
"""Serving quickstart: disclose once, then serve per-role views over HTTP.

The paper's deployment story in one script:

1. disclose a small DBLP-like graph (this is the only step that spends
   privacy budget) and persist the release into a temporary
   :class:`~repro.core.store.ReleaseStore`;
2. start the read-only :class:`~repro.serving.ReleaseServer` on a free port
   — from here on no disclosure code runs at all;
3. fetch the views of two roles with different privileges over real HTTP
   and verify they differ exactly as the paper promises: the privileged
   role's view sits at a finer level with a smaller noise scale;
4. show the API's refusal behaviour (unknown role -> 403).

Run with ``python examples/serving_quickstart.py [num_authors]``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import (
    AccessPolicy,
    DisclosureConfig,
    MultiLevelDiscloser,
    ReleaseStore,
    generate_dblp_like,
)
from repro.grouping.specialization import SpecializationConfig
from repro.serving import ReleaseServer, fetch_json, http_get


def main(num_authors: int = 400) -> None:
    # -- 1. disclose once (budget is spent here, and only here) ----------
    graph = generate_dblp_like(num_authors=num_authors, seed=7)
    config = DisclosureConfig(
        epsilon_g=0.8, specialization=SpecializationConfig(num_levels=6)
    )
    release = MultiLevelDiscloser(config, rng=1).disclose(graph)

    store_path = Path(tempfile.mkdtemp(prefix="repro-store-")) / "releases.db"
    store = ReleaseStore(store_path, cache_size=16)
    key = store.save(release)
    print(f"disclosed levels {release.levels()} and stored under key {key!r}")

    # -- 2. serve (read-only; the pipeline above is no longer involved) --
    policy = AccessPolicy({"analyst": 0, "public": 4}, top_level=6)
    with ReleaseServer(store, policy, port=0) as server:
        print(f"serving on {server.url}")
        health = fetch_json(server.url, "/healthz")
        print(f"healthz: {health['status']}, {health['releases']} release(s), "
              f"roles {health['roles']}")

        # -- 3. two roles, two very different views ----------------------
        analyst = fetch_json(server.url, f"/releases/{key}/views/analyst")
        public = fetch_json(server.url, f"/releases/{key}/views/public")
        for payload in (analyst, public):
            view = payload["release"]
            print(
                f"  role={payload['role']:<8} information_level={payload['information_level']}"
                f"  level={view['level']}  noise_scale={view['noise_scale']:.3f}"
            )

        assert analyst["release"]["level"] < public["release"]["level"], (
            "the privileged view must sit at a finer level"
        )
        assert analyst["release"]["noise_scale"] < public["release"]["noise_scale"], (
            "the privileged view must be more accurate"
        )
        print("privilege/accuracy trade-off verified: analyst view is finer and quieter")

        # -- 4. the API refuses what the policy does not grant -----------
        status, _ = http_get(f"{server.url}/releases/{key}/views/stranger")
        print(f"unknown role 'stranger' -> HTTP {status}")
        assert status == 403

    print("server stopped; the stored release remains servable at any time")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
