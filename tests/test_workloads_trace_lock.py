"""Trace lock: every registry workload's coalesced stream, fingerprinted.

A workload is a pure function of its constructor arguments, and every
replay, figure and served mix starts from its coalesced access stream.
These fingerprints pin that stream (pages, write flags and warp
boundaries) at a few sizes and seeds, so a change to a workload's
layout, its reported footprint or the trace machinery cannot move a
trace unnoticed.  Regenerate an entry only for a deliberate trace change.
"""

import hashlib
import struct

import pytest

from repro.sim.gpu import coalesce
from repro.workloads.registry import EXTRA_WORKLOAD_NAMES, WORKLOAD_NAMES, make_workload

#: ``{workload: {footprint: (seed 0, seed 1)}}``: the first 16 hex digits
#: of :func:`trace_fingerprint` of ``make_workload(name, footprint, seed)``.
EXPECTED = {
    "lavamd": {
        6: ("5b86cf04a3140366", "db058608ecf75604"),
        79: ("e9352fa227efd777", "28fc05b8977ea291"),
        144: ("194332fbdda6195f", "618abd4ccb2ae8c7"),
        640: ("5c1d1dca57a7739f", "b3c7852a03f666c6"),
    },
    "pathfinder": {
        6: ("22bc8cf04697e114", "f47e058361f12f87"),
        79: ("a0525f82ccae4a88", "a3d7d20edc27e91f"),
        144: ("8c9c1e6c1f48f5f5", "4081674afa945260"),
        640: ("2fa1ffb7d93562e0", "166fe68610e58a08"),
    },
    "bfs": {
        6: ("104d9332d3359d73", "e5aa5ae55a42da82"),
        79: ("0e75e7960bdc8587", "28e56462b077359e"),
        144: ("b9e4127adbd322e9", "830dafbbf5b6dcb4"),
        640: ("d2d0e89578dfd3c0", "8bd873695ad58cf6"),
    },
    "multivectoradd": {
        6: ("b371e0c8d0eb04d1", "01bda553689688c8"),
        79: ("3bfab756add7ae37", "5184e2f40d8b55a4"),
        144: ("2574a6892d3a37a9", "408b1391e57f23ea"),
        640: ("593e45654dd6cd6b", "0b942861d6f06cec"),
    },
    "srad": {
        6: ("b151fad6e0a47abc", "1dd27b4be60e0558"),
        79: ("64613753cfa2b3e5", "b6a5df079bacb6e3"),
        144: ("18a64f0b1d5c928e", "1e5ad9ab57bd98d1"),
        640: ("3a99587ce9aee6ad", "f52064efb86eec23"),
    },
    "backprop": {
        6: ("9f82bc1b8b2da887", "2907e440f1ac0644"),
        79: ("dd30206d8ffeeda1", "8bb9ed3f4435e126"),
        144: ("a1681693b0ec95e4", "fd246695f7866dcc"),
        640: ("d1d140934137f4f1", "2612afd8e0dc2876"),
    },
    "pagerank": {
        6: ("7096e84abf814e5b", "053711487d6be245"),
        79: ("a85c777fb28c8f84", "b34414f68e69230b"),
        144: ("287685d14e5eee01", "b6201c556bad897b"),
        640: ("8bad32946e455000", "f39b1bd65844607a"),
    },
    "sssp": {
        6: ("31e0fc8b38ba997a", "4b3a7d51ba921137"),
        79: ("757a9d840d3e7207", "3cad9c6b44e0f01f"),
        144: ("daba38f647541806", "945e8030a8311409"),
        640: ("9b62a907d7504d7e", "ab7242dfc509eea3"),
    },
    "hotspot": {
        6: ("f43f6dcdf30b9196", "5638fa217372a047"),
        79: ("37eb37fa65a7a36f", "16fb425ed235761a"),
        144: ("09ca3e721789c68c", "2711d5185691d739"),
        640: ("21aa6e80dc004b00", "44855312e77cb400"),
    },
    "streaming": {
        6: ("1d857d99b8a9c0e4", "56479362ed6d8ba1"),
        79: ("2aef0f98fd813fe6", "76533eb132834db2"),
        144: ("ae9e6ede6aac755c", "209c42174aa62b22"),
        640: ("e57cc09748e5ebb5", "0e0c2ae7ac75ace3"),
    },
    "keyvalue": {
        6: ("16dab79396cc2bce", "e3b7437f10614f73"),
        79: ("06faef9499fd0fbc", "cb205422a135485a"),
        144: ("511cf2c3b5d62dea", "0880a0279ec97fa1"),
        640: ("cfd361eb60c66c04", "a0c6eee245209718"),
    },
}


def trace_fingerprint(workload) -> str:
    """SHA-256 over each warp's write flag, coalesced page count and
    coalesced pages, in trace order."""
    digest = hashlib.sha256()
    for warp in workload:
        pages = coalesce(warp)
        digest.update(struct.pack(f"<?I{len(pages)}q", warp.write, len(pages), *pages))
    return digest.hexdigest()[:16]


def test_every_registry_workload_is_locked():
    assert set(EXPECTED) == set(WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("footprint", [6, 79, 144, 640])
@pytest.mark.parametrize("name", WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES)
def test_trace_is_unchanged(name, footprint, seed):
    workload = make_workload(name, footprint, seed=seed)
    assert trace_fingerprint(workload) == EXPECTED[name][footprint][seed]
