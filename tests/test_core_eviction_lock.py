"""Eviction lock: what each clock victim's decision does, pinned.

Every Tier-1 clock victim is retained, placed in Tier-2 or bypassed to
Tier-3 (paper section 2.1.3, with section 2.2's 80 % override), and the
lifecycle recorder stamps each move with the cause behind it.  These
fingerprints pin the result of each replay (every counter, the
prediction confusion, the modelled time) and its full lifecycle stream,
over replays that between them take every eviction cause: each runtime
kind, set dueling and the Belady oracle at the default geometry, no
second chances (``max_clock_retries=0``), the queueing time model with
prefetching and with background evictions, and two 3-tenant serves.  A
change to how a decision reaches the placement leaves, or to how the
queueing model learns an eviction's side effects, cannot move a counter,
an event or a cause unnoticed.  Regenerate an entry only for a
deliberate behaviour change.
"""

import hashlib
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core.oracle import FutureReuseIndex, OraclePolicy, fit_global_vtd_model
from repro.core.runtime import GMTRuntime
from repro.experiments.harness import build_runtime, default_config, get_workload
from repro.obs import Telemetry
from repro.policyzoo.governor import GovernorConfig
from repro.serve import TenantServer, TenantSpec, build_tenants
from repro.serve.quota import QuotaConfig

SCALE = 8192
APPS = ("hotspot", "srad")
KINDS = ("bam", "tier-order", "random", "reuse", "hmm", "dragon", "dueling")
#: Geometry variants and the kinds that replay them.  Without second
#: chances only a predicting policy changes; the queueing model is fed by
#: one policy that places every victim and one that predicts each.
VARIANTS = {
    "no-retries": (dict(max_clock_retries=0), ("reuse", "dueling")),
    "queueing-prefetch": (
        dict(time_model="queueing", prefetch_degree=2),
        ("tier-order", "reuse"),
    ),
    "queueing-async": (
        dict(time_model="queueing", async_evictions=True),
        ("tier-order", "reuse"),
    ),
}
SERVES = {
    "serve-static": dict(quota=QuotaConfig(mode="static")),
    "serve-dynamic-governor": dict(
        quota=QuotaConfig(mode="dynamic"),
        governor=GovernorConfig(tokens_per_1k_accesses=20.0, burst=4.0),
    ),
}

#: Every cause a Tier-1 eviction can carry.
EVICTION_CAUSES = {
    "policy-static",
    "cold-fallback",
    "predicted-medium",
    "predicted-long",
    "heuristic-forced-tier2",
    "retention-override",
    "t2-full-bypass",
    "t2-quota-denied",
    "migration-throttled",
}

#: ``{cell: first 16 hex digits of its fingerprint}``.
EXPECTED = {
    "hotspot/bam": "3d50880e20ea6d2c",
    "hotspot/tier-order": "24bc30c6cd8f041c",
    "hotspot/random": "babe1490683a2788",
    "hotspot/reuse": "47f175f9f014b385",
    "hotspot/hmm": "aa5d74069343cb34",
    "hotspot/dragon": "a30e83872d5dcd65",
    "hotspot/dueling": "ff4414a9d19f0cf1",
    "hotspot/oracle": "c34aea28c7e9926e",
    "hotspot/reuse/no-retries": "47f175f9f014b385",
    "hotspot/dueling/no-retries": "ff4414a9d19f0cf1",
    "hotspot/tier-order/queueing-prefetch": "7e8eb7b677d02ae1",
    "hotspot/reuse/queueing-prefetch": "de7acb0412c79a3d",
    "hotspot/tier-order/queueing-async": "b5dc260b2b613db0",
    "hotspot/reuse/queueing-async": "7985100890d71c67",
    "srad/bam": "ce8f9a45f6b65ac2",
    "srad/tier-order": "a370d0c48123c5a4",
    "srad/random": "acb8c039ac68810a",
    "srad/reuse": "6ef41d54ec29d4f0",
    "srad/hmm": "c432210b7f9e32cf",
    "srad/dragon": "59b003bb6b82226e",
    "srad/dueling": "8d2b4baab80ced55",
    "srad/oracle": "b9e75a86f6e6b747",
    "srad/reuse/no-retries": "94b832f096829971",
    "srad/dueling/no-retries": "94f04c9e3b234c92",
    "srad/tier-order/queueing-prefetch": "ede22297099895e8",
    "srad/reuse/queueing-prefetch": "dfe785a8a8c49b5f",
    "srad/tier-order/queueing-async": "ad5059da321b6d07",
    "srad/reuse/queueing-async": "0ef5a80cf750dcc3",
    "serve-static": "8b9f31cc3ec71e32",
    "serve-dynamic-governor": "63858307c59a2bc8",
}


def _cell_ids():
    for app in APPS:
        for kind in KINDS + ("oracle",):
            yield f"{app}/{kind}"
        for variant, (_, kinds) in VARIANTS.items():
            for kind in kinds:
                yield f"{app}/{kind}/{variant}"
    yield from SERVES


def _oracle_runtime(config, workload):
    index = FutureReuseIndex(workload)
    model = fit_global_vtd_model(workload)
    return GMTRuntime(
        config,
        policy_factory=lambda cfg, stats, vts, rng: OraclePolicy(
            cfg, stats, vts, index, model
        ),
    )


def _serve(name):
    config = default_config(SCALE)
    streams = build_tenants(
        [TenantSpec(name=n, workload=n) for n in ("bfs", "hotspot", "srad")],
        config,
        seed=0,
    )
    server = TenantServer(config, streams, **SERVES[name])
    telemetry = server.runtime.attach_telemetry(Telemetry(lifecycle=True))
    outcome = server.run(solo_baselines=False)
    tenants = [sorted(t.stats.as_dict().items()) for t in outcome.tenants]
    return outcome.result, tenants, telemetry.lifecycle.events()


def _replay(cell):
    app, kind, *variant = cell.split("/")
    config = default_config(SCALE)
    if variant:
        config = replace(config, **VARIANTS[variant[0]][0])
    workload = get_workload(app, config, seed=0)
    if kind == "oracle":
        runtime = _oracle_runtime(config, workload)
    else:
        runtime = build_runtime(kind, config)
    telemetry = runtime.attach_telemetry(Telemetry(lifecycle=True))
    return runtime.run(workload), [], telemetry.lifecycle.events()


@lru_cache(maxsize=None)
def fingerprint(cell):
    """``(digest, causes)`` of one cell: the digest covers the result's
    counters, confusion and modelled time, any per-tenant counters, and
    every lifecycle event; ``causes`` is the set of causes its stream
    carries."""
    if cell in SERVES:
        result, tenants, events = _serve(cell)
    else:
        result, tenants, events = _replay(cell)
    lines = [
        repr(sorted(result.stats.as_dict().items())),
        repr(sorted(result.stats.confusion.items())),
        repr(result.elapsed_ns),
        repr(tenants),
    ]
    lines.extend(repr(sorted(event.to_dict().items())) for event in events)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    return digest, frozenset(event.cause for event in events)


@pytest.mark.parametrize("cell", list(_cell_ids()))
def test_replay_is_pinned(cell):
    assert fingerprint(cell)[0] == EXPECTED[cell]


def test_every_eviction_cause_is_taken():
    # The lock only guards the causes its replays reach.
    seen = set()
    for cell in _cell_ids():
        seen |= fingerprint(cell)[1]
    assert EVICTION_CAUSES <= seen, sorted(EVICTION_CAUSES - seen)
