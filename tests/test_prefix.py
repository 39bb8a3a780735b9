"""The one home of the contract of ``invseq.prefix``: every property a
Prefix promises is tested here once, on each of the eight routes that
keep one and read no other route (NAMES):

  * the rules memo of each of the three rule systems, 201-210, 011-201
    and 010-100-120-210;
  * the (k,F,F) slice of ``_ff_slice_prefix`` ("ff_slice_series");
  * the census and residual rows of the 201-210 system behind
    ``_check_system_violation`` ("census");
  * the closed form behind ``f_coefficients``;
  * the functional-equation iteration of each 2-parameter system behind
    ``iterate_fe`` ("iterate_fe:011-201", "iterate_fe:010-100-120-210").

What only some routes have is a row per route: the entry points that
read a route's prefix (ENTRIES: a memo also answers ``count_via_rules``
and ``state_profile``), and the routes whose step of x^0 runs nothing a
test plants in (FROM_THE_AXIOM: the census and the two FE routes).  Each
test starts from empty prefixes, compares with a run of the route
(start, step, args) from its start, and plants failures or watchers in
what the route's step runs, or plants another step.  The relation
routes of minpoly-A, minpoly-B and minpoly-F, which read those
prefixes, make eleven in the registry;
``test_count_reads_the_count_of_counts`` reads all eleven, and
``test_coefficients_per_residual_request`` in ``test_series`` steps the
three relation routes.  ``test_succession``, ``test_series`` and
``test_checks`` keep what a route adds to the contract: the kernel and
back steps of the memos, the census, FE and relation algebra; the
planted faults of every verify check are rows of
``verify_faults.FAULTS``."""

import ast
import inspect
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from functools import cache, partial

import pytest
from hypothesis import example, given, HealthCheck, settings, strategies as st

from invseq import checks, cli, prefix as prefix_module, series, succession
from invseq.checks import CHECKS, run_check
from invseq.prefix import _STATES, Prefix
from invseq.succession import SYSTEMS, RuleSystem, state_profile

FE_IDS = ("011-201", "010-100-120-210")


def _census(n):
    """The residual counts the system check reads through x^n."""
    assert checks._check_system_violation(n) is None
    return _STATES["system-201-210"].counts(n)


SERIES_REQUESTS = {
    "ff_slice_series": lambda n: checks._ff_slice_prefix().counts(n),
    "census": _census,
    "f_coefficients": series.f_coefficients,
    **{"iterate_fe:" + system_id: (lambda n, s=system_id: series.iterate_fe(s, n))
       for system_id in FE_IDS},
}
NAMES = (*SYSTEMS, *SERIES_REQUESTS)
STRUCTURE = "structure-theorem"
# the routes whose step of x^0 forms it from the axiom, without running
# what _slot plants in
FROM_THE_AXIOM = ("census", *("iterate_fe:" + s for s in FE_IDS))
# route name -> {entry point: request(n)} for every request that reads
# the route's prefix: "counts" on every route, and on a rules memo also
# "count" (count_via_rules) and "profile" (state_profile)
ENTRIES = {
    **{system_id: {
        "counts": partial(succession.rule_counting_sequence, system_id),
        "count": partial(succession.count_via_rules, system_id),
        "profile": partial(state_profile, system_id)}
       for system_id in SYSTEMS},
    **{name: {"counts": request} for name, request in SERIES_REQUESTS.items()},
}
ROWS = [(name, entry) for name in NAMES for entry in ENTRIES[name]]
# at most KEEP checkpoints besides depth 0, so that their spacing doubles
# at depths 9, 17 and 33 and is 8 from 33 to 64
KEEP = 8


class Planted(Exception):
    """The failure a test plants in a step."""


def _fresh_system(system_id):
    s = SYSTEMS[system_id]
    return RuleSystem(s.name, s.basis, s.axiom, s.successors, s.accept,
                      s.state_str, s.kernel, s.to_dense, s.to_dict, s.render,
                      s.back)


def _slot(name, monkeypatch):
    """(namespace, key) where the named route's step, or for the census
    the kernel its step is given, is looked up when a request runs."""
    if name in SYSTEMS:
        system = _fresh_system(name)
        monkeypatch.setitem(SYSTEMS, name, system)
        return vars(system), "kernel"
    if name == "ff_slice_series":
        return vars(checks), "_step_ff"
    if name == "census":
        return vars(checks), "_fast_step_201_210"
    if name == "f_coefficients":
        return vars(series), "_f_step"
    return series._FE_STEP, name.split(":")[1]


def _route(name, monkeypatch):
    """(prefix, current, slot) for the named route: its Prefix in the
    registry, emptied, made with a forwarding step installed in slot (see
    _slot) that runs current[0], the real step at first, so that a test
    swaps what the step runs without changing the prefix's key."""
    namespace, key = slot = _slot(name, monkeypatch)
    current = [namespace[key]]
    monkeypatch.setitem(namespace, key, lambda *args: current[0](*args))
    ENTRIES[name]["counts"](0)
    (prefix,) = [s for s in _STATES.values() if isinstance(s, Prefix)]
    prefix._memo = None
    return prefix, current, slot


@contextmanager
def _running(current, step):
    """Make the forwarding step run step inside the block."""
    real = current[0]
    current[0] = step
    try:
        yield
    finally:
        current[0] = real


def _failing_after(real, calls):
    """real, made to raise Planted once it has run calls times."""
    done = [0]

    def failing(*args):
        if done[0] == calls:
            raise Planted
        done[0] += 1
        return real(*args)
    return failing


def _cold(prefix, n):
    """[(level, count) for depths 0..n] of the prefix's route, stepped
    from its start with no prefix."""
    start, step, args = prefix.route
    run, level = [], start
    for _ in range(n + 1):
        nxt, c = step(level, *args)
        run.append((level, c))
        level = nxt
    return run


def _key(name):
    """The registry key of the named route's Prefix."""
    if name == "census":
        return "system-201-210"
    if name.startswith("iterate_fe:"):
        return "iterate_fe", name.split(":")[1]
    return name


@cache
def _cold_run(name):
    """[(level, count) for depths 0..61] of the named route, stepped by
    its real step from its start with no prefix, in a registry of its
    own."""
    saved = dict(_STATES)
    _STATES.clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            return _cold(_route(name, mp)[0], 61)
    finally:
        _STATES.clear()
        _STATES.update(saved)


def _expected(name, entry, n):
    """What a cold run answers to the entry point's request at n."""
    run = _cold_run(name)
    if entry == "counts":
        return [c for _, c in run[:n + 1]]
    if entry == "count":
        return run[n][1]
    return SYSTEMS[name].to_dict(run[n][0])


def _spoil(answer):
    """Mutate a returned list or dict in place: a list's first and last
    entries, and one more at its end; every entry of a dict."""
    if isinstance(answer, list):
        answer[0] = answer[-1] = -1
        answer.append(-1)
    elif isinstance(answer, dict):
        answer.clear()
        answer["spoiled"] = -1


def _assert_answers_equal(prefix, cold, stored_levels):
    """The prefix's counts and levels equal the run from the start, cold
    = [(level, count) for depths 0..len(cold) - 1], for requests through
    len(cold) - 2, so that the level the prefix steps next is in cold,
    and each checkpoint is the level of the run at its depth (see the
    fixture stored_levels)."""
    top = len(cold) - 2
    for n in (0, 3, 20, 63, 64, 65, 100, top - 7, top):
        if n > top:
            continue
        assert prefix.counts(n) == [c for _, c in cold[:n + 1]], n
        assert prefix.level(n) == cold[n][0], n
    counts, level, _ = prefix._memo
    assert counts == [c for _, c in cold[:len(counts)]]
    assert level == cold[len(counts)][0]
    stored = stored_levels(prefix)
    assert stored == [(d, cold[d][0]) for d, _ in stored]


@pytest.mark.parametrize("name", NAMES)
def test_a_failing_step_never_leaves_a_prefix_shallower(name, monkeypatch,
                                                        fresh_states,
                                                        stored_levels):
    """A step that raises during an extension, a few steps in or at the
    first one, leaves the prefix at least as deep as it was: it holds
    the counts of the depths stepped and the level at the depth whose
    step raised.  Afterwards every answer equals a run from the
    start."""
    prefix, current, _ = _route(name, monkeypatch)
    cold = _cold(prefix, 130)
    prefix.counts(100)
    for calls in (4, 0):
        before = len(prefix._memo[0])
        with _running(current, _failing_after(current[0], calls)):
            with pytest.raises(Planted):
                prefix.counts(120)
        after = len(prefix._memo[0])
        assert after == before + calls, calls
        assert prefix._memo[1] == cold[after][0], calls
    _assert_answers_equal(prefix, cold, stored_levels)


@pytest.mark.parametrize("name", NAMES)
def test_a_failing_first_request_keeps_only_levels_it_reached(
        name, monkeypatch, fresh_states, stored_levels):
    """A prefix publishes only the depths whose step returned: when what
    the step runs raises at its first call, the prefix holds depth 0 of
    a route that forms x^0 from the axiom without running it, and
    nothing otherwise; when the first step itself raises, the prefix
    stays empty."""
    prefix, current, _ = _route(name, monkeypatch)
    cold = _cold(prefix, 70)
    with _running(current, _failing_after(current[0], 0)):
        with pytest.raises(Planted):
            prefix.counts(10)
    if name in FROM_THE_AXIOM:
        assert prefix._memo[:2] == ([cold[0][1]], cold[1][0])
        prefix._memo = None
    assert prefix._memo is None
    start, step, args = prefix.route
    prefix.route = start, _failing_after(step, 0), args
    with pytest.raises(Planted):
        prefix.counts(10)
    assert prefix._memo is None
    prefix.route = start, step, args
    _assert_answers_equal(prefix, cold, stored_levels)


@pytest.mark.parametrize("name", NAMES)
def test_a_prefix_is_replaced_only_by_a_longer_one(name, monkeypatch,
                                                  fresh_states, stored_levels):
    """A request for depth 20 that finishes after one for depth 40, here
    served inside its first call of what the step runs, leaves the deeper
    prefix in place and answers from it without finishing its own copy:
    what the step runs is called once per depth through 40 (not at x^0
    on a route FROM_THE_AXIOM) and once more, for the call that served
    the deeper request, and a request for 35 then steps nothing; and
    mutating an answer leaves the prefix intact."""
    prefix, current, _ = _route(name, monkeypatch)
    cold = _cold(prefix, 70)
    real = current[0]
    nested, steps = [], [0]

    def serving_a_deeper_request_first(*args):
        steps[0] += 1
        if not nested:
            nested.append(None)
            nested.append(prefix.counts(40))
        return real(*args)
    with _running(current, serving_a_deeper_request_first):
        assert prefix.counts(20) == [c for _, c in cold[:21]]
        assert steps[0] == 1 + 41 - (name in FROM_THE_AXIOM)
        steps[0] = 0
        assert prefix.counts(35) == [c for _, c in cold[:36]]
        assert steps[0] == 0
    assert nested == [None, [c for _, c in cold[:41]]]
    assert len(prefix._memo[0]) == 41
    for n in (40, 20, 0):
        answer = prefix.counts(n)
        answer[n] = -1
        answer.append(-1)
    _assert_answers_equal(prefix, cold, stored_levels)


@pytest.mark.parametrize("name", NAMES)
def test_a_negative_depth_raises_and_leaves_the_prefix(name, monkeypatch,
                                                       fresh_states):
    """Every entry point of a route raises ValueError at n = -1, on an
    empty prefix and on a warm one, and leaves the prefix as it was."""
    prefix = _route(name, monkeypatch)[0]
    for warm in (False, True):
        if warm:
            prefix.counts(10)
        memo = prefix._memo
        for request in ENTRIES[name].values():
            with pytest.raises(ValueError):
                request(-1)
            assert prefix._memo is memo


def _spoil_then_read(rows):
    """The requests that mutate the answers of rows at depths 20, 12, 20
    and 25, then read each row at 0, 12, 25 and 30."""
    return [(row, n) for n in (20, 12, 20, 25) for row in rows
            if row[1] != "count"] + \
        [(row, n) for row in rows for n in (0, 12, 25, 30)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(ROWS), st.integers(0, 60)),
                min_size=1, max_size=8))
@example([(("ff_slice_series", "counts"), n) for n in (30, 30, 20, 0, 45)])
@example([(("iterate_fe:" + s, "counts"), n) for s, n in (
    ("011-201", 25), ("011-201", 12), ("011-201", 3), ("011-201", 25),
    ("010-100-120-210", 60), ("011-201", 40))])
@example(_spoil_then_read([row for row in ROWS if row[0] == "201-210"]))
@example(_spoil_then_read([row for row in ROWS if row[0] == "011-201"]))
@example(_spoil_then_read([row for row in ROWS
                           if row[0] == "010-100-120-210"]))
@example(_spoil_then_read([row for row in ROWS if row[0] not in SYSTEMS]))
def test_answers_equal_a_cold_run_under_any_requests(fresh_states, requests):
    """Any sequence of requests on any routes through any of their entry
    points, repeats and decreasing runs included, served from empty
    prefixes that keep at most KEEP checkpoints besides depth 0, gets
    the answers of a run from the start, even when the caller mutates
    every answer it gets."""
    fresh_states()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Prefix, "_KEEP", KEEP)
        for (name, entry), n in requests:
            answer = ENTRIES[name][entry](n)
            assert answer == _expected(name, entry, n), (name, entry, n)
            _spoil(answer)


@pytest.mark.parametrize("name", NAMES)
def test_resuming_a_route_equals_the_run_from_the_axiom(name, monkeypatch,
                                                        fresh_states):
    """A prefix taken to any depth and then to 30 ends where a fresh one
    taken to 30 at once does, and has the same levels on the way."""
    start, step, args = _route(name, monkeypatch)[0].route
    cold = Prefix(start, step, *args)
    cold.counts(30)
    for depth in range(31):
        prefix = Prefix(start, step, *args)
        prefix.counts(depth)
        assert prefix.counts(30) == cold.counts(30), depth
        assert prefix._memo[1] == cold.level(31), depth
        assert prefix.level(depth) == cold.level(depth), depth


def _counting(current):
    """Make the forwarding step count its calls in the returned list."""
    real = current[0]
    steps = [0]

    def counted(*args):
        steps[0] += 1
        return real(*args)
    current[0] = counted
    return steps


@pytest.mark.parametrize("name", NAMES)
def test_a_planted_route_replaces_the_prefix(name, monkeypatch,
                                             fresh_states):
    """A step planted where the route looks it up (see _slot: a rule
    system's kernel, a step in ``invseq.series`` or ``invseq.checks``,
    or for the census the kernel its step is given, which the step of
    x^0 does not run) after a warm request to depth 40 is stepped from
    the start in a prefix of its own, which replaces the stored one, and
    gives the answers of the step it wraps; restoring the real step
    replaces that prefix in turn."""
    prefix, current, (namespace, key) = _route(name, monkeypatch)
    cold = [c for _, c in _cold(prefix, 40)]
    request = ENTRIES[name]["counts"]
    assert request(40) == cold
    installed = namespace[key]
    steps = _counting(current)

    def planted(*args):
        return installed(*args)
    stored = prefix
    for step in (planted, installed):
        monkeypatch.setitem(namespace, key, step)
        steps[0] = 0
        assert request(30) == cold[:31]
        assert steps[0] == (30 if name in FROM_THE_AXIOM else 31)
        (new,) = [s for s in _STATES.values() if isinstance(s, Prefix)]
        _, new_step, args = new.route
        assert new is not stored and step in (new_step, *args)
        stored = new


def test_a_planted_checker_is_asked_each_length_once_and_keeps_no_state(
        monkeypatch, fresh_states):
    """structure-theorem keeps no prefix, so none can outlive a checker
    planted in ``invseq.checks`` after a warm request to length 6: the
    planted checker, and then the real one restored, are each asked for
    every length from the empty word up, once, until the first length
    that fails, give the line of a cold run on them and leave no state."""
    real = checks._sliced_checker
    assert run_check(STRUCTURE, 6)[0]

    def planted(n, lt):
        # 010 is word 3 of length 3, in the order of itertools.product
        return real(n, lt) ^ (1 << 3 if n == 3 else 0)
    lengths = Counter()

    def counted(n, lt):
        lengths[n] += 1
        return checker(n, lt)
    monkeypatch.setattr(checks, "_sliced_checker", counted)
    for checker, line, through in (
            (planted, (False, ["FAIL at e=010: checker False, avoidance True"]),
             3),
            (real, (True, ["OK: checker agrees with pattern avoidance for all "
                           "inversion sequences through n=5"]), 5)):
        lengths.clear()
        assert run_check(STRUCTURE, 5) == line
        assert lengths == Counter(range(through + 1))
        assert STRUCTURE not in _STATES


def _counting_back(system):
    """Make the system's inverse step count its calls in the returned
    list."""
    real = system.back
    steps = [0]

    def counted(*args):
        steps[0] += 1
        return real(*args)
    system.back = counted
    return steps


def test_state_profile_resumes_from_the_nearest_stored_level(monkeypatch,
                                                            fresh_states):
    """A profile at depth n, once the memo is 150 deep and so keeps a
    checkpoint every 16 depths, steps the kernel from the stored level
    nearest at or below n, or steps back with the system's inverse from
    the stored level above n, a checkpoint or the level at 150, when that
    is strictly nearer (136 and 147 are ties, and step forward), and
    equals the level of a run from the axiom."""
    memo, current, _ = _route("201-210", monkeypatch)
    system = SYSTEMS["201-210"]
    memo.counts(149)
    cold = _cold(memo, 150)
    steps = _counting(current)
    backs = _counting_back(system)
    for n, depth in ((150, 150), (149, 150), (128, 128), (127, 128),
                     (5, 0), (137, 144), (136, 128), (147, 144), (148, 150)):
        steps[0] = backs[0] = 0
        profile = state_profile("201-210", n)
        assert (steps[0], backs[0]) == (max(n - depth, 0),
                                        max(depth - n, 0)), n
        assert profile == system.to_dict(cold[n][0]), n


def test_level_steps_back_from_a_nearer_stored_level():
    """On a route with an exact inverse, the doubling of the module's
    doctest with halving as back, a prefix 70 deep keeps checkpoints at
    0, 8, ..., 64 and the level at 70.  level(n, back) steps forward from
    the checkpoint at or below n unless the stored level above n is
    strictly nearer, and then steps back from it; ties go forward, and
    with no back every resume goes forward.  Every level is 2^n, and
    the prefix is left as it was."""
    steps, backs = [0], [0]

    def double(level):
        steps[0] += 1
        return 2 * level, level

    def halve(level):
        backs[0] += 1
        assert level % 2 == 0
        return level // 2

    prefix = Prefix(1, double)
    prefix.counts(69)
    memo = prefix._memo
    assert sorted(memo[2]) == list(range(0, 65, 8)) and len(memo[0]) == 70
    stored = (*range(0, 65, 8), 70)
    for n in range(71):
        below = max(d for d in stored if d <= n)
        above = min(d for d in stored if d >= n)
        for back, expected in (
                (None, (n - below, 0)),
                (halve, (n - below, 0) if n - below <= above - n
                 else (0, above - n))):
            steps[0] = backs[0] = 0
            assert prefix.level(n, back) == 2 ** n, n
            assert (steps[0], backs[0]) == expected, (n, back)
    assert prefix._memo is memo


@pytest.mark.parametrize("system_id", SYSTEMS)
def test_a_profile_right_after_a_count_steps_nothing(system_id, monkeypatch,
                                                     fresh_states):
    """A count through n = 120 leaves the memo 121 deep with a checkpoint
    every 8 depths, so the profile at 120 that follows it reads the
    checkpoint at 120 and steps no level, and the profile at 119 steps
    7, from 112, or, for a system with an inverse step, steps back once
    from 120; both equal the levels of a run from the axiom."""
    memo, current, _ = _route(system_id, monkeypatch)
    system = SYSTEMS[system_id]
    cold = _cold(memo, 121)
    succession.count_via_rules(system_id, 120)
    steps = _counting(current)
    backs = [0] if system.back is None else _counting_back(system)
    assert succession.profile_text(system_id, 120) == \
        system.render(cold[120][0])
    assert (steps, backs) == ([0], [0])
    assert succession.profile_text(system_id, 119) == \
        system.render(cold[119][0])
    assert (steps, backs) == (([7], [0]) if system.back is None
                              else ([0], [1]))


_requests = st.lists(st.integers(0, 40), max_size=6)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(NAMES), _requests, _requests)
@example("census", [20, 60, 50, 60, 20, 8, 0], [13, 60, 0])
@example("census", [20, 20, 8, 0, 27, 30, 29], [])
@example("201-210", [], [40, 61, 13, 0, 7, 60, 56])
@example("ff_slice_series", [30, 30, 12, 0, 37, 38, 36, 60], [13, 60, 0])
@example("f_coefficients", [30, 30, 12, 0, 37, 38, 36, 60], [13, 60, 0])
@example("iterate_fe:011-201", [30, 30, 12, 0, 37, 38, 36, 60], [13, 60, 0])
@example("iterate_fe:010-100-120-210", [30, 30, 12, 0, 37, 38, 36, 60],
         [13, 60, 0])
def test_steps_per_request_on_every_route(fresh_states, name, counts, levels):
    """With at most 4 checkpoints besides depth 0, each of any sequence of
    count requests on a route's empty prefix gets the counts of a run
    from the start and runs its step once per depth it adds: n + 1 - L
    times on a prefix L deep, none when L > n, so once per depth through
    the deepest n in all; then level(n) steps n % s times below the
    stored depth L, s the least power of two with L <= 4s, none at it and
    n - L times above it (n times on an empty prefix), leaving the
    prefix n deep."""
    fresh_states()
    with pytest.MonkeyPatch.context() as mp:
        start, step, args = _route(name, mp)[0].route
        steps = [0]

        def counted(*a):
            steps[0] += 1
            return step(*a)
        prefix = Prefix(start, counted, *args)
        prefix._KEEP = 4

        def depth():
            return len(prefix._memo[0]) if prefix._memo else 0
        for n in counts:
            stored = depth()
            steps[0] = 0
            assert prefix.counts(n) == _expected(name, "counts", n), n
            assert steps[0] == max(n + 1 - stored, 0), n
        for n in levels:
            stored, spacing = depth(), 1
            while stored > 4 * spacing:
                spacing *= 2
            steps[0] = 0
            prefix.level(n)
            assert steps[0] == (n % spacing if n < stored else n - stored), n
            assert depth() == max(stored, n), n


def _spacing(depth):
    """s(depth), the least power of two s with depth <= _KEEP * s."""
    spacing = 1
    while depth > Prefix._KEEP * spacing:
        spacing *= 2
    return spacing


def test_every_published_prefix_holds_the_checkpoints_of_its_depth():
    """A step that reads the published prefix at every depth of a cold
    counts(1000), and of counts(20) then counts(100), finds at depth d
    exactly the checkpoints at 0, s, 2s, ... up to d, s = s(d), at most
    _KEEP + 1 of them, each the level at its depth.  The counts list
    grows in place, so its length is read when the step runs."""
    seen = []

    def published():
        memo = prefix._memo
        seen.append(memo and (len(memo[0]), memo[2]))

    def watching(level):
        published()
        return level + 1, level
    for requests in ((1000,), (20, 100)):
        prefix = Prefix(0, watching)
        seen.clear()
        for n in requests:
            prefix.counts(n)
        published()
        assert seen[0] is None
        assert [depth for depth, _ in seen[1:]] == \
            list(range(1, requests[-1] + 2))
        for depth, checkpoints in seen[1:]:
            assert sorted(checkpoints) == \
                list(range(0, depth + 1, _spacing(depth))), depth
            assert len(checkpoints) <= Prefix._KEEP + 1
            assert all(level == d for d, level in checkpoints.items())


@pytest.mark.parametrize("name", NAMES)
def test_every_prefix_keeps_checkpoints_and_cuts_back(name, monkeypatch,
                                                      fresh_states,
                                                      stored_levels):
    """With at most 4 checkpoints besides depth 0, a prefix 17 to 32 deep
    keeps the levels at 0, 8, 16, ..., the very levels a cold extension
    to it steps past there, and while a request extends it from depth 21
    it is published after every step: when the level at depth d is
    stepped, the prefix holds the counts through d - 1 and that very
    level, so no older level is kept; a level between two checkpoints
    is stepped from the one below it, and a memo's state_profile there
    is the level of the run."""
    prefix, current, _ = _route(name, monkeypatch)
    prefix._KEEP = 4
    cold = _cold(prefix, 31)
    prefix.counts(21)
    assert stored_levels(prefix) == [(d, cold[d][0]) for d in (0, 8, 16)]
    start, step, args = prefix.route
    seen = []

    def watching(level, *rest):
        counts, deepest, _ = prefix._memo
        seen.append((len(counts), deepest is level))
        return step(level, *rest)
    prefix.route = start, watching, args
    assert prefix.counts(30) == [c for _, c in cold[:31]]
    prefix.route = start, step, args
    assert seen == [(d, True) for d in range(22, 31)]
    counts, level, _ = prefix._memo
    assert len(counts) == 31
    assert level == cold[31][0]
    assert stored_levels(prefix) == [(d, cold[d][0]) for d in (0, 8, 16, 24)]
    steps = _counting(current)
    assert prefix.level(23) == cold[23][0]
    assert steps == [7]
    if name in SYSTEMS:
        assert state_profile(name, 21) == SYSTEMS[name].to_dict(cold[21][0])


_prefix_requests = st.lists(
    st.tuples(st.sampled_from(("counts", "level")), st.integers(0, 400)),
    min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(_prefix_requests, st.integers(0, 400))
@example([("counts", 100), ("counts", 1000)], 200)
def test_any_requests_leave_the_checkpoints_of_the_depth_reached(requests,
                                                                 fails_at):
    """After each of any counts and level requests on a prefix whose step
    raises once, when it is given the level at depth fails_at, the prefix
    L deep holds exactly the checkpoints at 0, s, 2s, ... up to L, s =
    s(L), each the level at its depth, and level(m) steps fewer than s
    levels for every m <= L.  The example pinned: counts(100), then a
    counts(1000) that raises at depth 200, keeps every multiple of 16
    through 192; spacing checkpoints by the target depth kept only 0,
    16, ..., 96, 128 and 192 there, and level(190) stepped 62 levels."""
    steps, armed = [0], [True]

    def step(level):
        if level == fails_at and armed:
            armed.clear()
            raise Planted
        steps[0] += 1
        return level + 1, level
    prefix = Prefix(0, step)
    for ask, n in requests:
        try:
            getattr(prefix, ask)(n)
        except Planted:
            pass
        counts, _, checkpoints = prefix._memo or ([], 0, {0: 0})
        depth, spacing = len(counts), _spacing(len(counts))
        assert counts == list(range(depth))
        assert sorted(checkpoints) == list(range(0, depth + 1, spacing))
        assert all(level == d for d, level in checkpoints.items())
        for m in range(depth + 1):
            steps[0] = 0
            assert prefix.level(m) == m
            assert steps[0] < spacing, (depth, m)


def test_an_interrupted_wider_extension_keeps_levels_it_can_step(
        stored_levels):
    """A (k,F,F) slice prefix 101 deep keeps its levels at multiples of
    8; a counts(1000) keeps each level it steps at a multiple of
    s(depth), 8 here, not of s(1000) = 64, so when it raises on its fifth
    step, at depth 105, the prefix holds the levels at 0, 8, ..., 104;
    a later counts(110) keeps them.  After
    each, every level at or below the depth reached is that of a run
    from the start, stepped from a checkpoint at most 7 levels below it,
    and at most _KEEP + 1 checkpoints are held."""
    run, level = [], [1]
    for _ in range(112):
        run.append(level)
        level = checks._step_ff(level)[0]
    steps = [0]

    def counted(level):
        steps[0] += 1
        return checks._step_ff(level)

    def failing(level):
        if steps[0] == 4:
            raise Planted
        return counted(level)
    prefix = Prefix([1], checks._step_ff)
    prefix.counts(100)
    assert [d for d, _ in stored_levels(prefix)] == list(range(0, 101, 8))
    prefix.route = [1], failing, ()
    with pytest.raises(Planted):
        prefix.counts(1000)
    prefix.route = [1], counted, ()
    for depth in (105, 111):
        counts, _, checkpoints = prefix._memo
        assert len(counts) == depth
        assert sorted(checkpoints) == list(range(0, 105, 8))
        assert len(checkpoints) <= Prefix._KEEP + 1
        for m in range(depth + 1):
            steps[0] = 0
            assert prefix.level(m) == run[m], m
            assert steps[0] <= 7, (depth, m)
        prefix.counts(110)
    steps[0] = 0
    prefix.level(110)
    assert steps[0] == 6


# check[:entry of _FE_STEP] -> (namespace, key) of what the check's route
# runs, and the depth a call of it asks for: the closed form's step the
# x-degree it forms, a functional equation's step and the 201-210 kernel
# one past the x-degree of their input, and the order masks that
# structure-theorem builds per request the word length they are built for
PAST = {
    "gf-vs-rules": (vars(series), "_f_step", lambda level: level[0]),
    **{"fe-vs-rules:" + system_id: (series._FE_STEP, system_id, len)
       for system_id in FE_IDS},
    "structure-theorem": (vars(checks), "_order_masks",
                          lambda length: length),
    "system-201-210": (vars(checks), "_fast_step_201_210",
                       lambda level: len(level[0])),
}


@pytest.mark.parametrize("name", sorted(PAST))
@pytest.mark.parametrize("n", [0, 1, 5])
def test_no_series_route_runs_past_the_requested_depth(name, n, monkeypatch,
                                                      fresh_states):
    """What a series route runs, planted to raise when it is asked for
    depth n + 1, leaves the replies through n and 0 as the real route
    gives them, cold and warm, served deepest first or last."""
    check = name.split(":")[0]
    expected = {d: run_check(check, d) for d in (0, n)}
    namespace, key, depth_of = PAST[name]
    real = namespace[key]

    def planted(*args):
        if depth_of(*args) > n:
            raise Planted
        return real(*args)
    monkeypatch.setitem(namespace, key, planted)
    for order in ((n, 0, n), (0, n, n)):
        fresh_states()
        assert [run_check(check, d) for d in order] == \
            [expected[d] for d in order]


def test_threads_that_find_a_key_empty_share_one_prefix(monkeypatch,
                                                        fresh_states):
    """Two threads that ask shared for an empty key at once get the same
    Prefix: making one waits up to 1 s for the other thread to make one
    too, which it never does, since the lookup and the store are one
    step."""
    barrier = threading.Barrier(2)

    class Waiting(Prefix):
        def __init__(self, *route):
            try:
                barrier.wait(timeout=1)
            except threading.BrokenBarrierError:
                pass
            super().__init__(*route)
    monkeypatch.setattr(prefix_module, "Prefix", Waiting)
    got = []

    def step(level):
        return level, 0

    def ask():
        got.append(prefix_module.shared("race", 0, step))
    threads = [threading.Thread(target=ask) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(got) == 2 and got[0] is got[1] is _STATES["race"]


def test_a_request_during_an_extension_repeats_no_step(fresh_states):
    """A request for depth 20 that arrives while another thread extends
    the same prefix to 50 waits for it and reads its counts: the step
    runs once per depth 0..50 in all."""
    reached = threading.Event()
    stepped = []

    def slow(level):
        time.sleep(0.002)
        stepped.append(level)
        if level == 5:
            reached.set()
        return level + 1, level
    prefix = Prefix(0, slow)
    answers = {}

    def deep():
        answers[50] = prefix.counts(50)

    def shallow():
        assert reached.wait(timeout=10)
        answers[20] = prefix.counts(20)
    threads = [threading.Thread(target=deep), threading.Thread(target=shallow)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert answers == {n: list(range(n + 1)) for n in (50, 20)}
    assert sorted(stepped) == list(range(51))


def test_prefix_imports_no_invseq_module():
    for node in ast.walk(ast.parse(inspect.getsource(prefix_module))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0
            assert not (node.module or "").startswith("invseq")
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "invseq" for a in node.names)


def test_each_prefix_is_distinct_and_served_by_its_own_route(monkeypatch,
                                                            fresh_states):
    """The eight prefixes are distinct Prefix objects, and a request on
    one route extends its own prefix and leaves the other seven as they
    were."""
    for system_id in SYSTEMS:
        monkeypatch.setitem(SYSTEMS, system_id, _fresh_system(system_id))
    requests = {name: ENTRIES[name]["counts"] for name in NAMES}
    for request in requests.values():
        request(2)
    prefixes = list(_STATES.values())
    assert len({id(p) for p in prefixes}) == 8
    assert all(isinstance(p, Prefix) for p in prefixes)
    for name, request in requests.items():
        memos = [p._memo for p in prefixes]
        request(5)
        moved = [p._memo is not m for p, m in zip(prefixes, memos)]
        assert sum(moved) == 1, name


def test_count_reads_the_count_of_counts(fresh_states):
    """On each of the eleven routes in the registry, count(n) is
    counts(n)[n], below and past the stored depth, and a negative depth
    raises ValueError."""
    for name in NAMES:
        ENTRIES[name]["counts"](3)
    for name in ("minpoly-A", "minpoly-B", "minpoly-F"):
        assert run_check(name, 3)[0], name
    assert len(_STATES) == 11
    for key, prefix in _STATES.items():
        for n in (2, 0, 7, 5):
            assert prefix.count(n) == prefix.counts(n)[n], (key, n)
        with pytest.raises(ValueError):
            prefix.count(-1)


class _Untakable:
    """A lock stub that fails the test when it is taken."""

    def __enter__(self):
        raise AssertionError("the lock was taken")

    def __exit__(self, *exc):
        return False


def test_a_warm_count_takes_no_lock(fresh_states):
    """counts and count read a prefix that is already deep enough
    without its lock, and so does a warm minpoly check on every prefix
    it reads; level, and a request past the stored depth, take it."""
    prefix = Prefix(0, lambda level: (level + 1, level))
    assert prefix.counts(70) == list(range(71))
    prefix._lock = _Untakable()
    assert prefix.counts(70) == list(range(71))
    assert [prefix.count(n) for n in (0, 64, 70)] == [0, 64, 70]
    for ask in (lambda: prefix.level(70), lambda: prefix.level(3),
                lambda: prefix.count(71), lambda: prefix.counts(71)):
        with pytest.raises(AssertionError, match="lock was taken"):
            ask()
    warm = run_check("minpoly-B", 50)
    for state in _STATES.values():
        state._lock = _Untakable()
    assert run_check("minpoly-B", 50) == warm == (
        True, ["OK: relation holds through n=50"])
    assert run_check("minpoly-B", 20)[0]


def test_lock_free_reads_during_an_extension_see_only_final_counts(
        fresh_states):
    """Four threads read counts and count at the published depth while
    another extends the same prefix, with a tiny switch interval: the
    extension waits at depth 700 until a read has been served, which a
    read that waited for its lock could not be, and every answer is that
    of a cold run."""
    served = threading.Event()
    waited = []

    def step(level):
        if level == 700:
            waited.append(served.wait(timeout=10))
        return level + 1, level * level
    prefix = Prefix(0, step)
    prefix.counts(10)
    errors = []

    def read():
        for _ in range(500):
            n = len(prefix._memo[0]) - 1
            if prefix.counts(n) != [k * k for k in range(n + 1)] \
                    or prefix.count(n) != n * n:
                errors.append(n)
            served.set()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=prefix.counts, args=(1500,)),
                   *(threading.Thread(target=read) for _ in range(4))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert waited == [True] and not errors
    assert prefix.counts(1500) == [k * k for k in range(1501)]


def test_threads_across_doublings_get_the_cold_answers(monkeypatch,
                                                       fresh_states,
                                                       stored_levels):
    """With at most 2 checkpoints besides depth 0, so that the spacing
    doubles at depths 3, 5, 9, 17, 33 and 65, eight threads that mix
    level(n), counts(n) and deeper extensions on one prefix of the
    (k,F,F) slice, with a tiny switch interval, all get the answers of a
    run from the start, and the prefix they leave holds its levels."""
    monkeypatch.setattr(Prefix, "_KEEP", 2)
    run, level = [], [1]
    for _ in range(102):
        nxt, count = checks._step_ff(level)
        run.append((level, count))
        level = nxt
    errors = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            prefix = Prefix([1], checks._step_ff)
            barrier = threading.Barrier(8)

            def serve(offset):
                barrier.wait(timeout=30)
                for n in range(offset, 101, 8):
                    for m in (n, n // 2, n // 3):
                        if prefix.level(m) != run[m][0]:
                            errors.append(("level", m))
                    if prefix.counts(n // 2) != [c for _, c in run[:n // 2 + 1]]:
                        errors.append(("counts", n // 2))
            threads = [threading.Thread(target=serve, args=(offset,))
                       for offset in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors
            counts, level, _ = prefix._memo
            assert len(counts) == 100 and level == run[100][0]
            stored = stored_levels(prefix)
            assert [d for d, _ in stored] == [0, 64]
            assert stored == [(d, run[d][0]) for d, _ in stored]
    finally:
        sys.setswitchinterval(switch)


# route name -> the (entry point, n) requests of its threads in
# test_concurrent_requests_share_consistent_prefixes
THREADED = {
    **{system_id: (("counts", 45), ("profile", 60), ("count", 30),
                   ("counts", 55)) for system_id in SYSTEMS},
    **{name: (("counts", 25), ("counts", 50)) for name in SERIES_REQUESTS},
}


def test_concurrent_requests_share_consistent_prefixes(monkeypatch,
                                                      fresh_states,
                                                      stored_levels):
    """Threads request different depths of every route at once, through
    every entry point a route has (THREADED); a tiny switch interval
    makes them interleave inside the steps.  With at most KEEP
    checkpoints besides depth 0, every answer, and every prefix left
    behind, is that of a run from the start: as deep as the deepest
    request, its counts, its level and each checkpoint."""
    monkeypatch.setattr(Prefix, "_KEEP", KEEP)
    requests = [(name, entry, n) for name, rows in THREADED.items()
                for entry, n in rows]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fresh_states()
            barrier = threading.Barrier(len(requests))
            answers = {}

            def serve(name, entry, n):
                barrier.wait(timeout=30)
                answers[name, entry, n] = ENTRIES[name][entry](n)

            threads = [threading.Thread(target=serve, args=r) for r in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert answers == {r: _expected(*r) for r in requests}
            assert len(_STATES) == len(NAMES)
            for name in NAMES:
                prefix, run = _STATES[_key(name)], _cold_run(name)
                counts, level, _ = prefix._memo
                depth = max(n + (entry != "profile")
                            for entry, n in THREADED[name])
                assert counts == [c for _, c in run[:depth]], name
                assert level == run[depth][0], name
                assert stored_levels(prefix) == [
                    (d, run[d][0]) for d in range(0, depth + 1, 8)], name
    finally:
        sys.setswitchinterval(switch)


def _same(a, b):
    """a == b, with the same type at every list and tuple inside."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_every_route_keeps_few_checkpoints_that_are_its_levels(
        capsys, fresh_states, stored_levels):
    """After every check at its default depth and one request of each
    command, each prefix in the registry holds at most _KEEP + 1
    checkpoints, and each is the level of a run of its route from the
    start at its depth, with the same list and tuple types
    inside.  The (k,F,F) slice, at 1500 deep, holds 12."""
    for name, (_, depth) in CHECKS.items():
        assert run_check(name, depth)[0], name
    for argv in (["count", "--system", "201-210", "--n", "300"],
                 ["count", "--system", "201-210", "--method", "gf",
                  "--n", "150"],
                 ["series", "--system", "011-201", "--n-max", "120",
                  "--format", "csv"],
                 ["series", "--system", "010-100-120-210", "--n-max", "90",
                  "--format", "bfile"],
                 ["list", "--basis", "011,201", "--n", "3"],
                 ["profile", "--system", "201-210", "--n", "100"],
                 ["diagram", "--system", "201-210", "--n-max", "2"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert len(_STATES) == 15
    for key, prefix in _STATES.items():
        start, step, args = prefix.route
        stored = stored_levels(prefix)
        level, depth = start, 0
        for d, kept in stored:
            while depth < d:
                level = step(level, *args)[0]
                depth += 1
            assert _same(kept, level), (key, d)
    checks._ff_slice_prefix().count(1500)
    assert len(stored_levels(_STATES["ff_slice_series"])) == 12
