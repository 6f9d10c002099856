"""Compare two sets of benchmark results by per-workload medians.

Usage::

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` files that
``perfbench/run.py`` writes to ``perfbench/out/`` (copy them aside between
commits).  For every workload and end-to-end metric it prints both
medians, the change as a share of the base median, and a verdict against
the metric's bound: ``worse`` beyond the bound, ``ok`` otherwise, and
``unresolved`` when the base runs' own quartile spread exceeds the bound.
Results from hosts with different fingerprints are flagged and not
scored.  Exit code 1 means a scored metric got worse beyond its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spec  # noqa: E402


def load(directory: str):
    """workload → metric → values, plus the set of host fingerprints."""
    values, hosts = {}, set()
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        hosts.add(json.dumps(record["host"], sort_keys=True))
        metrics = values.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return values, hosts


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else 0.0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, base_hosts = load(argv[0])
    head, head_hosts = load(argv[1])
    scored = len(base_hosts | head_hosts) == 1
    if not scored:
        print("FLAGGED: results come from different host fingerprints; not scored:")
        for host in sorted(base_hosts | head_hosts):
            print(f"  {host}")
    worse = False
    for workload in sorted(set(base) & set(head)):
        for name, unit, better, bound, _ in spec.END_TO_END:
            if name not in base[workload] or name not in head[workload]:
                continue
            b = statistics.median(base[workload][name])
            h = statistics.median(head[workload][name])
            change = (h - b) / b if b else 0.0
            loss = change if better == "lower" else -change
            if not scored:
                verdict = "flagged"
            elif spread(base[workload][name]) > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict, worse = "worse", True
            else:
                verdict = "ok"
            print(
                f"{workload:8s} {name:20s} {b:12.5g} -> {h:12.5g} {unit:6s} "
                f"{change:+8.2%} (bound {bound:.0%}) {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
