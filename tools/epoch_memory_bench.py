"""Peak memory and wall time of the `dl-svrg-eg` run of the benchmark's
pb1000-vr sweep, in a fresh process per run.

    python3 tools/epoch_memory_bench.py LABEL=SRC_DIR [LABEL=SRC_DIR ...] > BENCH.json

Each SRC_DIR is the `src` directory of a checkout, so a parent and a change
are measured by the same script on the same machine. Every round runs one
child process per checkout, in alternating order from round to round
(`alternating.py`). A child loads the 1000 x 1000 pursuit game of the
benchmark (instance seed 2023) from an instance file, as the benchmark's
sweep does, and runs `visolve.run(game, "dl-svrg-eg", 4 * N, seed, N // 2)`,
the sweep's budget and cadence, with run seed r % 2 in round r, as the
sweep runs seeds 0 and 1. Generating the game in the child instead would
set the peak before the run starts. A separate process of the first
checkout writes the file once: a child inherits the peak resident set of
the process that starts it (`ru_maxrss` survives fork and exec on Linux),
so this script holds no game itself. A child reports:

* `peak_rss_mb`: the process's peak resident set after the run
  (`ru_maxrss`);
* `setup_rss_mb`: the same peak before the run, after the imports and the
  load;
* `run_s`: the run's wall time.

The output is one JSON object: the environment (as the byte gate's header
names it, plus the core count), per checkout the median and quartiles of
each figure over the rounds, and, with two checkouts, the rounds in which
the second reads lower than the first ("wins" of the second).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import alternating

ROUNDS = 12
KEYS = ("peak_rss_mb", "setup_rss_mb", "run_s")
SAVE = ("import sys; sys.path.insert(0, sys.argv[1]); import visolve as vs; "
        "vs.save_instance(sys.argv[2], vs.policeman_burglar(1000, 2023))")


def _peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(src, path, seed):
    """One run of one checkout."""
    sys.path.insert(0, src)
    import visolve as vs

    game = vs.load_instance(path)
    N = vs.default_components(game)
    setup = _peak_mb()
    t0 = time.perf_counter()
    vs.run(game, "dl-svrg-eg", 4 * N, seed, N // 2)
    return {"run_s": time.perf_counter() - t0, "peak_rss_mb": _peak_mb(), "setup_rss_mb": setup}


def main(argv):
    sources = alternating.checkouts(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pb1000.vif")
        subprocess.run([sys.executable, "-c", SAVE, os.path.abspath(next(iter(sources.values()))),
                        path], check=True)
        rounds = alternating.run_rounds(__file__, sources, ROUNDS,
                                        lambda r: [path, str(r % 2)])
    report = {"environment": alternating.environment(), "rounds": ROUNDS, "checkouts": {}}
    for label, runs in rounds.items():
        row = {}
        for key in KEYS:
            row.update(alternating.spread([run[key] for run in runs], key))
        report["checkouts"][label] = row
    if len(rounds) == 2:
        first, second = rounds.values()
        report["wins_of_second"] = {key: sum(b[key] < a[key] for a, b in zip(first, second))
                                    for key in KEYS}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        print(json.dumps(child(os.path.abspath(sys.argv[2]), sys.argv[3], int(sys.argv[4]))))
    else:
        main(sys.argv)
