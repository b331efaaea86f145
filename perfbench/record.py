"""Record the reference outputs ``run.py`` checks against.

Usage, from the repository root (takes under a minute)::

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: the experiment-netproc
configurations and every sizing point of the sizing workload.
Re-record only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads

    reference = {"experiment-netproc": {}, "sizing": {}}
    workload = workloads.Experiment(0, reference)
    reference["experiment-netproc"] = workloads.observe_experiment(workload.iteration())
    workload = workloads.Sizing(0, reference)
    workload.setup()
    for run in workload.iteration():
        point = workloads.observe_sizing(*run)
        reference["sizing"][point["name"]] = point
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write(dumps(reference))
    return 0


def dumps(reference) -> str:
    """JSON with one line per recorded entry, so re-records diff by entry."""
    sections = []
    for section, entries in sorted(reference.items()):
        lines = [
            "  %s: %s" % (json.dumps(key), json.dumps(value, sort_keys=True))
            for key, value in sorted(entries.items())
        ]
        sections.append(" %s: {\n%s\n }" % (json.dumps(section), ",\n".join(lines)))
    return "{\n%s\n}\n" % ",\n".join(sections)


if __name__ == "__main__":
    sys.exit(main())
