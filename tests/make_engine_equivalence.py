"""(Re)capture the golden fixtures the equivalence suites compare against.

Run from the repository root on the commit whose behaviour is to be frozen::

    PYTHONPATH=src python tests/make_engine_equivalence.py            # both
    PYTHONPATH=src python tests/make_engine_equivalence.py paths      # one

``engine`` writes ``fixtures/engine_equivalence.json`` from
:func:`equivalence_workloads.run_workloads` (the nine flat protocols in
instant mode, checked by ``test_engine_equivalence.py``); ``paths`` writes
``fixtures/path_goldens.json`` from :func:`path_workloads.run_path_workloads`
(latency, multi-hop, tiered, cluster and adversary runs, checked by
``test_path_goldens.py``).  A refactor that must not change behaviour keeps
both files byte-identical; re-capturing is only right when a change is meant
to alter keys, transcripts, ledgers or sim latencies.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import equivalence_workloads  # noqa: E402 (needs the path tweak above)
import path_workloads  # noqa: E402

#: fixture name -> (path relative to tests/, capture function)
FIXTURES = {
    "engine": (equivalence_workloads.FIXTURE_RELPATH, equivalence_workloads.run_workloads),
    "paths": (path_workloads.FIXTURE_RELPATH, path_workloads.run_path_workloads),
}


def write_fixture(name: str) -> str:
    relpath, capture = FIXTURES[name]
    path = os.path.join(HERE, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(capture(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def main(argv: list) -> int:
    names = argv or list(FIXTURES)
    unknown = sorted(set(names) - set(FIXTURES))
    if unknown:
        print(f"unknown fixture(s) {unknown}; choose from {sorted(FIXTURES)}", file=sys.stderr)
        return 2
    for name in names:
        print(f"wrote {write_fixture(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
