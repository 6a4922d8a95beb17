"""The alternating-rounds driver of the A/B scripts beside this file.

A script measures two or more checkouts by running itself as a child, one
process per checkout and round:

    python3 SCRIPT --child SRC_DIR [ARG ...]

Each child imports `visolve` from its SRC_DIR and prints one JSON object.
The order of the checkouts flips from round to round, so neither one always
runs first on a host whose speed drifts. A report opens with the
environment, as the byte gate's header names it, plus the core count.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from fixed_matrix import environment as _gate_environment


def checkouts(argv):
    """{label: SRC_DIR} from the script's LABEL=SRC_DIR arguments."""
    return dict(arg.split("=", 1) for arg in argv[1:])


def run_rounds(script, sources, rounds, child_args=lambda r: ()):
    """{label: [the child's JSON output, one per round]}; ``child_args(r)``
    gives round r's arguments after SRC_DIR."""
    runs = {label: [] for label in sources}
    for r in range(rounds):
        order = list(sources) if r % 2 == 0 else list(reversed(sources))
        for label in order:
            done = subprocess.run([sys.executable, script, "--child", sources[label],
                                   *child_args(r)], capture_output=True, text=True, check=True)
            runs[label].append(json.loads(done.stdout))
    return runs


def environment():
    """The byte gate's environment lines without their `# `, and the core count."""
    return [line[2:] for line in _gate_environment()] + [f"cores {os.cpu_count()}"]


def spread(values, key):
    """``{key}_median``, ``{key}_q1`` and ``{key}_q3`` of the values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {f"{key}_median": median, f"{key}_q1": q1, f"{key}_q3": q3}
