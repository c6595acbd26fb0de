"""The randomized suites' thread pool: serial order, serial verdicts, cleanup.

``_parallel.imap_in_order`` sizes its pool from the process's affinity set;
the tests pin that set with ``monkeypatch`` to compare a pool against the
plain one-worker loop on any machine.
"""

import gc
import os
import random
import sys
import threading
import time

import pytest
import scipy.sparse.linalg as spla

from hitchinlab import _parallel, analysis, maxprin
from hitchinlab.geometry import GridSpec, build_grid

WINDOW = _parallel._IN_FLIGHT_PER_WORKER


def force_workers(monkeypatch, count):
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: count)


def test_workers_fall_back_to_the_cpu_count_without_an_affinity_set(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _parallel._workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)     # undeterminable
    assert _parallel._workers() == 1


@pytest.fixture(scope="module")
def suite_grids():
    # the grids verify_max_principle uses by default
    return [build_grid(GridSpec("torus", (16, 16))),
            build_grid(GridSpec("radial_disc", 64, 0.8))]


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# -- the helper --------------------------------------------------------------


def test_results_come_in_input_order(monkeypatch):
    force_workers(monkeypatch, 3)
    delays = random.Random(5).choices([0.0, 0.001, 0.004], k=60)

    def slow_square(x):
        time.sleep(delays[x])
        return x * x

    before = threading.active_count()
    assert list(_parallel.imap_in_order(slow_square, range(60))) == [x * x for x in range(60)]
    assert threading.active_count() == before


def test_one_worker_is_a_plain_loop_on_the_calling_thread(monkeypatch):
    force_workers(monkeypatch, 1)
    caller = threading.current_thread()
    seen = list(_parallel.imap_in_order(lambda x: threading.current_thread(), range(5)))
    assert seen == [caller] * 5


def test_first_exception_in_input_order_wins_and_unstarted_tasks_are_cancelled(monkeypatch):
    force_workers(monkeypatch, 3)
    later_failed = threading.Event()
    calls = []

    def task(x):
        calls.append(x)
        if x == 2:      # fails only after item 4 has failed
            later_failed.wait(10)
            time.sleep(0.02)
            raise KeyError(x)
        if x == 4:
            later_failed.set()
            raise LookupError(x)
        return x

    before = threading.active_count()
    results = []
    with pytest.raises(KeyError, match="2"):
        for r in _parallel.imap_in_order(task, range(10000)):
            results.append(r)
    assert results == [0, 1]
    assert threading.active_count() == before
    # at most one window of tasks was drawn beyond the result last yielded
    assert len(calls) <= 2 + WINDOW * 3


def test_a_failed_draw_keeps_its_place_in_the_order(monkeypatch):
    force_workers(monkeypatch, 3)

    def draws(fail_at):
        for x in range(20):
            if x == fail_at:
                raise RuntimeError(f"draw {x}")
            yield x

    def task(x):
        if x == 3:
            raise ValueError("task 3")
        return x

    before = threading.active_count()
    # a task that fails before the draw does comes first, as in a serial loop
    with pytest.raises(ValueError, match="task 3"):
        list(_parallel.imap_in_order(task, draws(7)))
    results = []
    with pytest.raises(RuntimeError, match="draw 2"):
        for r in _parallel.imap_in_order(task, draws(2)):
            results.append(r)
    assert results == [0, 1]
    assert threading.active_count() == before


# -- the suites: identical to one worker ---------------------------------------


def _suites(seed, grids):
    """Both suites on ``seed``: a 50-case positivity suite on the
    max-principle grids and a sym-space run at its CLI defaults."""
    return (_outcome(maxprin.randomized_positivity_suite, 50, seed, grids),
            _outcome(analysis.verify_sym_space, 10000, seed))


@pytest.fixture(scope="module")
def serial_suites(suite_grids):
    with pytest.MonkeyPatch.context() as mp:
        force_workers(mp, 1)
        return {seed: _suites(seed, suite_grids) for seed in (0, 4, 7, 23)}


# "affinity" is the pool the machine gives; "three" is a pool on any machine
@pytest.mark.parametrize("workers", [None, 3], ids=["affinity", "three"])
@pytest.mark.parametrize("seed", [0, 4, 7, 23])
def test_suites_match_the_serial_loop(monkeypatch, suite_grids, serial_suites, seed, workers):
    if workers is not None:
        force_workers(monkeypatch, workers)
    serial = serial_suites[seed]
    assert _suites(seed, suite_grids) == serial
    positivity, sym_space = serial
    assert positivity["passed"] and len(positivity["cases"]) == 50
    assert sym_space["passed"] and len(sym_space["groups"]) == 13
    # seeds 4 and 7 each draw one degenerate sp_real n = 2 plane, which is skipped
    skipped = {(e["group"], e["n"]) for e in sym_space["groups"] if e["degenerate_samples"]}
    assert skipped == ({("sp_real", 2)} if seed in (4, 7) else set())
    assert sum(e["degenerate_samples"] for e in sym_space["groups"]) == len(skipped)


def test_suites_match_the_serial_loop_under_frequent_thread_switches(
        monkeypatch, suite_grids, serial_suites):
    # more workers than cores, switching threads every few bytecodes
    force_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _suites(0, suite_grids) == serial_suites[0]
    finally:
        sys.setswitchinterval(interval)


# -- the suites: order and cleanup -----------------------------------------------


def test_sym_space_refusal_names_the_first_pair_in_order(monkeypatch):
    # a pair refuses only when none of its planes is nondegenerate
    real = analysis.random_tangent_planes
    later_failed = threading.Event()

    def planes(group, n, rng, count):
        Y, Z = real(group, n, rng, count)
        if (group, n) == ("sl_real", 3):      # earlier pair, fails last in time
            if not later_failed.wait(10):
                pytest.fail("the later pair never ran")
            time.sleep(0.02)
            Z = Y.copy()
        elif (group, n) == ("sl_complex", 2):
            later_failed.set()
            Z = 2.0 * Y
        else:
            Z[5] = Y[5]                       # one degenerate plane is skipped
        return Y, Z

    monkeypatch.setattr(analysis, "random_tangent_planes", planes)
    force_workers(monkeypatch, 3)
    before = threading.active_count()
    with pytest.raises(ValueError, match=r"^sl_real n=3: no sampled pair of tangent vectors"):
        analysis.verify_sym_space(300, 0, (2, 3))
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 3])
def test_certification_error_propagates_as_in_the_serial_loop(monkeypatch, workers):
    real_draw, real_solve = maxprin.random_cooperative_system, maxprin.solve_linear_cooperative
    drawn = []

    def draw(*args, **kwargs):
        drawn.append(real_draw(*args, **kwargs))
        return drawn[-1]

    def solve(sys_):
        case = next(k for k, s in enumerate(drawn) if s is sys_)
        if case == 7:       # fails after case 9 has failed, where there is a pool
            time.sleep(0.05)
        if case in (7, 9):
            raise maxprin.CertificationError(f"injected at case {case}")
        return real_solve(sys_)

    monkeypatch.setattr(maxprin, "random_cooperative_system", draw)
    monkeypatch.setattr(maxprin, "solve_linear_cooperative", solve)
    force_workers(monkeypatch, workers)
    grids = [build_grid(GridSpec("radial_disc", 16, 0.8))]
    before = threading.active_count()
    with pytest.raises(maxprin.CertificationError, match="^injected at case 7$"):
        maxprin.randomized_positivity_suite(40, 0, grids)
    assert threading.active_count() == before
    # the draws stop one window past the failing case
    assert len(drawn) <= 8 + WINDOW * workers


@pytest.mark.parametrize("workers", [2, 3])
def test_drawn_systems_wait_for_at_most_one_window(monkeypatch, workers):
    real_draw, real_solve = maxprin.random_cooperative_system, maxprin.solve_linear_cooperative
    lock = threading.Lock()
    drawn, solved, peak = 0, 0, 0

    def draw(*args, **kwargs):
        nonlocal drawn, peak
        sys_ = real_draw(*args, **kwargs)
        with lock:
            drawn += 1
            peak = max(peak, drawn - solved)
        return sys_

    def solve(sys_):
        nonlocal solved
        time.sleep(0.001)
        result = real_solve(sys_)
        with lock:
            solved += 1
        return result

    monkeypatch.setattr(maxprin, "random_cooperative_system", draw)
    monkeypatch.setattr(maxprin, "solve_linear_cooperative", solve)
    force_workers(monkeypatch, workers)
    out = maxprin.randomized_positivity_suite(300, 0, [build_grid(GridSpec("radial_disc", 16, 0.8))])
    assert out["passed"] and drawn == solved == 300
    assert 1 < peak <= WINDOW * workers


def test_every_superlu_factor_is_released_on_the_thread_that_made_it(monkeypatch, suite_grids):
    # a factor freed on another thread leaks its memory (see the module
    # docstring of _parallel), so no factor may outlive its worker's call
    made, released = [], []
    real_splu = spla.splu

    class Factor:
        def __init__(self, lu):
            self._lu, self._thread = lu, threading.get_ident()
            made.append(self._thread)

        def solve(self, rhs):
            return self._lu.solve(rhs)

        def __del__(self):
            released.append((self._thread, threading.get_ident()))

    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: Factor(real_splu(*args, **kwargs)))
    force_workers(monkeypatch, 3)
    out = maxprin.randomized_positivity_suite(24, 0, suite_grids)
    gc.collect()
    assert out["passed"] and len(made) == len(released) == 24
    assert set(made) - {threading.get_ident()}, "no factor was made on a worker thread"
    assert all(made_on == freed_on for made_on, freed_on in released)
