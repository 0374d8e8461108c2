"""Path goldens: latency, multi-hop, tiered, cluster and adversary runs.

``fixtures/path_goldens.json`` was captured by ``make_engine_equivalence.py``
before the engine's delivery path was restructured.  Each test re-runs one
workload from ``path_workloads.py`` and compares it field by field, so a
divergence names the execution path and the field that moved: the
transcript digest, a node's ledger, the key fingerprint, a step's traffic,
its sim latency or its timeouts.
"""

from __future__ import annotations

import json
import os

import pytest

from path_workloads import FIXTURE_RELPATH, PATH_WORKLOADS

_FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), FIXTURE_RELPATH)

with open(_FIXTURE_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def test_every_workload_is_pinned():
    assert sorted(GOLDEN) == sorted(PATH_WORKLOADS)


@pytest.mark.parametrize("workload", sorted(PATH_WORKLOADS))
def test_path_is_byte_identical_to_capture(workload):
    golden = GOLDEN[workload]
    current = json.loads(json.dumps(PATH_WORKLOADS[workload]()))
    assert sorted(current) == sorted(golden)
    for section in golden:
        assert current[section] == golden[section], (
            f"{workload}: section {section!r} diverged from the captured golden"
        )
