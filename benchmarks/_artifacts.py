"""Machine-readable benchmark artifacts: ``BENCH_<module>.json``.

Every benchmark module emits one artifact on teardown (see the autouse timer
fixture in ``conftest.py``): per-test wall times, interpreter/platform
identification and whatever domain metrics the module records explicitly
(energy totals, sim-latency percentiles, cache hit rates, speedups).  Fresh artifacts land in ``benchmarks/artifacts/`` (override with
``$REPRO_BENCH_DIR``); the committed reference points live in
``benchmarks/trajectory/`` and ``check_regression.py`` compares the two.

Schema (version 1)::

    {
      "schema": 1,
      "name": "<module name without the test_ prefix>",
      "python": "3.x.y",
      "platform": "...",
      "wall_seconds": {"<test name>": <float>, ...},
      "total_wall_seconds": <float>,
      "metrics": {"<key>": <json value>, ...}
    }
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict

__all__ = ["SCHEMA_VERSION", "BenchArtifact", "artifact_dir", "trajectory_dir"]

SCHEMA_VERSION = 1


def artifact_dir() -> Path:
    """Where fresh artifacts go (``$REPRO_BENCH_DIR`` or ``benchmarks/artifacts``)."""
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "artifacts"


def trajectory_dir() -> Path:
    """The committed reference points the regression gate compares against."""
    return Path(__file__).resolve().parent / "trajectory"


class BenchArtifact:
    """Collects one module's measurements; written once at module teardown."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall_seconds: Dict[str, float] = {}
        self.metrics: Dict[str, object] = {}

    def record(self, key: str, value: object) -> None:
        """Attach one domain metric (must be JSON-serializable)."""
        self.metrics[key] = value

    def record_test(self, test_name: str, wall_s: float) -> None:
        self.wall_seconds[test_name] = round(wall_s, 6)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "wall_seconds": dict(sorted(self.wall_seconds.items())),
            "total_wall_seconds": round(sum(self.wall_seconds.values()), 6),
            "metrics": dict(sorted(self.metrics.items())),
        }

    def write(self) -> Path:
        directory = artifact_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")
        return path
