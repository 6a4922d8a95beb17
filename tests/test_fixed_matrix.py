"""The byte gate: the fixed matrix of `tools/fixed_matrix.py` must write CSVs
whose digests equal those committed in `tools/fixed_matrix.txt`. A change
that alters bytes on purpose rewrites that file in the same commit."""

import os

from conftest import fixed_matrix

COMMITTED = os.path.join(os.path.dirname(os.path.abspath(fixed_matrix.__file__)),
                         "fixed_matrix.txt")


def split_digests(lines):
    """(header lines, {path: digest}) of the tool's output."""
    header = [line for line in lines if line.startswith("#")]
    digests = dict(reversed(line.split("  ", 1)) for line in lines
                   if line and not line.startswith("#"))
    return header, digests


def test_fixed_matrix_digests_match_the_committed_file():
    with open(COMMITTED) as f:
        committed_env, committed = split_digests(f.read().splitlines())
    current = split_digests(fixed_matrix.digest_matrix())[1]
    differing = sorted(path for path in committed.keys() | current.keys()
                       if committed.get(path) != current.get(path))
    report = "\n".join([
        f"{len(differing)} of {len(committed)} CSVs differ from {COMMITTED}:",
        *(f"  {path}: committed {committed.get(path, '-')}, now {current.get(path, '-')}"
          for path in differing),
        "committed environment:", *committed_env,
        "this environment:", *fixed_matrix.environment()])
    assert not differing, report


def committed_run(sub):
    """{file name: digest} of the committed CSVs under one run's subdirectory."""
    with open(COMMITTED) as f:
        digests = split_digests(f.read().splitlines())[1]
    return {path.split("/", 1)[1]: digest for path, digest in digests.items()
            if path.startswith(f"{sub}/")}


def test_labeling_game_from_file_matches_generator():
    """The labeling game run from its CSR instance file (`segfile/`) writes
    the bytes of its run from the generator (`seg/`)."""
    from_file, from_gen = committed_run("segfile"), committed_run("seg")
    assert from_file == from_gen and len(from_file) == 20


def test_svrg_overrides_on_a_plain_vi_move_only_the_variance_reduced_runs():
    """`halfboxvr/` reruns `halfbox/` with `--p 0.5 --alpha 0.5`: `eg` and
    `oomd-l2` keep their bytes, and the six variance-reduced per-seed CSVs
    all differ, from each other and from their `halfbox/` twins."""
    plain, overridden = committed_run("halfbox"), committed_run("halfboxvr")
    assert plain.keys() == overridden.keys() and len(plain) == 16
    for name, digest in overridden.items():
        assert (digest == plain[name]) == (not name.split("_")[1].endswith("svrg-eg")), name
    seeds = [d for name, d in overridden.items() if "svrg-eg_seed" in name]
    assert len(set(seeds)) == len(seeds) == 6
