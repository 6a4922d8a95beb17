"""`tools/bench.py` without its child processes: the case table and the
report built from rounds."""

import bench
import pytest


def test_every_case_has_a_child_and_rounds_to_summarize():
    assert set(bench.CASES) == {"checkpoint", "spectral-norm", "epoch-memory", "setup", "e2e",
                                "step", "loc"}
    for name, case in bench.CASES.items():
        assert case.child.__name__ == name.replace("-", "_") + "_child"
        assert case.rounds >= 1
        assert case.rounds >= 2 or not case.timed  # quartiles need two rounds
    assert not bench.CASES["loc"].timed and all(case.timed for name, case in
                                                bench.CASES.items() if name != "loc")


FIXTURE = b'''"""A module docstring,
over two lines."""

import os  # a comment after code

# a comment line


class Thing:
    """A class docstring."""

    x = """a string that is no docstring,
over two lines"""

    def f(self, a,
          b):
        """A function docstring."""
        return (a +
                b)

    def g(self): return "doc of none"
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    """The fixture's code lines: the import, the class line, the two lines of
    the string assigned to x, the two lines of f's signature, the two of its
    return, and g."""
    assert bench.code_lines(FIXTURE) == 9
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_bytes(FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_bytes(b'"""Only a docstring."""\n')
    (tmp_path / "pkg" / "notes.txt").write_bytes(b"x = 1\n")
    assert bench.loc_child(str(tmp_path), 0, None) == {
        "modules": {"pkg/empty.py": 0, "pkg/mod.py": 9}, "code_lines": 9}
    report = bench.report({"a": [{"code_lines": 9}], "b": [{"code_lines": 7}]}, frozenset())
    assert report == {"checkouts": {"a": {"code_lines": 9}, "b": {"code_lines": 7}}}


def test_report_of_synthetic_rounds():
    def round_(s, ratio, code):
        return {"w": {"sweep_s": s, "run_ok_ratio": ratio, "n": 4}, "exit_code": code}

    before = [round_(s, 1.0, 1) for s in (1.0, 2.0, 3.0, 4.0, 5.0)]
    after = [round_(s, r, c) for s, r, c in ((0.5, 1.0, 1), (2.5, 0.5, 0), (2.0, 1.0, 1),
                                              (3.0, 1.0, 1), (6.0, 1.0, 1))]
    built = bench.report({"before": before, "after": after},
                         frozenset({"sweep_s", "run_ok_ratio"}))
    first, second = built["checkouts"]["before"], built["checkouts"]["after"]
    # statistics.quantiles' default method: q1 and q3 at ranks (n + 1) / 4 and 3 (n + 1) / 4
    assert first["w"]["sweep_s_median"] == 3.0
    assert first["w"]["sweep_s_q1"] == pytest.approx(1.5)
    assert first["w"]["sweep_s_q3"] == pytest.approx(4.5)
    assert second["w"]["sweep_s_median"] == 2.5
    assert second["w"]["run_ok_ratio_q1"] == pytest.approx(0.75)
    assert first["w"]["n"] == 4 and first["exit_code"] == 1   # the rounds agree: kept once
    assert second["exit_code"] == [1, 0, 1, 1, 1]             # they do not: kept per round
    # the second reads lower in rounds 0 and 2-3, and higher is better only for run_ok_ratio
    assert built["wins_of_second"] == {"w": {"sweep_s": 3, "run_ok_ratio": 0}}


def test_report_of_one_checkout_has_no_wins():
    runs = {"head": [{"ms": 2.0, "products": 6}, {"ms": 1.0}, {"ms": 3.0}]}
    assert bench.report(runs, frozenset({"ms"})) == {"checkouts": {"head": {
        "ms_median": 2.0, "ms_q1": 1.0, "ms_q3": 3.0, "products": 6}}}


def test_wins_skip_a_figure_the_second_checkout_lacks():
    """A route that one checkout never takes has no time to compare."""
    before = [{"hit_us": 2.0, "sort_us": 5.0}, {"hit_us": 3.0, "sort_us": 6.0}]
    after = [{"hit_us": 1.0, "retry_us": 4.0}, {"hit_us": 4.0, "retry_us": 4.0}]
    timed = frozenset({"hit_us", "retry_us", "sort_us"})
    assert bench.wins(list(zip(before, after)), timed) == {"hit_us": 1}


def test_step_routes_count_every_warm_projection(monkeypatch):
    """eg projects twice per step onto the pursuit game's two simplexes,
    which take a guess, so the routes of 50 steps count 100 projections."""
    import visolve as vs

    monkeypatch.setattr(bench, "STEPS", 50)
    run, taken = bench._stepper(vs, vs.policeman_burglar(30, 2023), "eg")
    routes = bench._warm_routes(vs, run)
    assert taken == 50
    assert sum(routes[f"{route}_calls"] for route in bench.ROUTES) == 100
    assert all(f"{route}_us" in routes for route in bench.ROUTES if routes[f"{route}_calls"])


def test_step_routes_count_the_warm_projections_of_many_blocks(monkeypatch):
    """pda projects the labeling game's 16 blocks of 4 entries once per step
    with a guess, and its box without one, so the routes of 50 steps count
    50 projections."""
    import visolve as vs

    monkeypatch.setattr(bench, "STEPS", 50)
    run, _ = bench._stepper(vs, vs.synthetic_segmentation(4, 4, 0), "pda")
    routes = bench._warm_routes(vs, run)
    assert sum(routes[f"{route}_calls"] for route in bench.ROUTES) == 50


def test_column_projections_count_every_simplex_projection(monkeypatch):
    """pda projects once per step onto the labeling game's simplex blocks,
    and so does svrg-eg, through the product of those blocks and a box, for
    its half step; every one of those projections takes the closed form for
    blocks of 2, and none takes a warm route. svrg-eg's full step
    re-projects locally, once per oracle block, two per step."""
    import visolve as vs

    monkeypatch.setattr(bench, "STEPS", 20)
    game = vs.synthetic_segmentation(4, 2, 0)
    for algo, calls, local in (("pda", 20, 0), ("svrg-eg", 20, 40)):
        run, _ = bench._stepper(vs, game, algo)
        timed = bench._column_projections(vs, run)
        assert timed["column_calls"] == calls and timed["column_us"] > 0.0
        assert timed["reproject_calls"] == local and ("reproject_us" in timed) == (local > 0)
        assert sum(bench._warm_routes(vs, run)[f"{r}_calls"] for r in bench.ROUTES) == 0


def test_step_runs_dl_svrg_eg_by_whole_epochs(monkeypatch):
    """On pb30, K = 15: 50 steps are 3 whole epochs, 45 inner steps of two
    warm projections each, and every epoch moves the snapshot."""
    import numpy as np
    import visolve as vs

    monkeypatch.setattr(bench, "STEPS", 50)
    refreshes = []
    snapshot = vs.DoubleLoopSvrgEG._snapshot

    def counted(self, w):
        refreshes.append(np.array(w))
        snapshot(self, w)

    monkeypatch.setattr(vs.DoubleLoopSvrgEG, "_snapshot", counted)
    run, taken = bench._stepper(vs, vs.policeman_burglar(30, 2023), "dl-svrg-eg")
    assert taken == 45
    refreshes.clear()
    routes = bench._warm_routes(vs, run)
    assert sum(routes[f"{route}_calls"] for route in bench.ROUTES) == 2 * taken
    assert len(refreshes) == 3
    assert not any(np.array_equal(a, b) for a, b in zip(refreshes, refreshes[1:]))
