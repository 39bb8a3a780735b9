"""The per-process prefix of ``invseq.prefix`` on each of the nine
routes that keep one: the three rule systems (the rules memo), the
(k,F,F) slice behind ``ff_slice_series``, the census slices of the
201-210 DP behind ``_check_system_violation``, the closed form behind
``f_coefficients``, the functional-equation iteration of each
2-parameter system behind ``iterate_fe`` and the first disagreements
per length behind structure-theorem.  Each test starts from empty
prefixes, compares with a run of the route from the axiom, and plants
failures or watchers in the route's step function, or plants another
route."""

import ast
import inspect

import pytest

from invseq import checks, prefix as prefix_module, series, succession
from invseq.checks import run_check
from invseq.prefix import _STATES, Prefix
from invseq.succession import SYSTEMS, RuleSystem, state_profile

FE_IDS = ("011-201", "010-100-120-210")


def _census(n):
    """The census rows the system check reads through x^n."""
    assert series._check_system_violation(n) is None
    return _STATES["profile_slices_201_210"].counts(n)


SERIES_REQUESTS = {
    "ff_slice_series": lambda n: series.ff_slice_series(n).coefficients,
    "census": _census,
    "f_coefficients": series.f_coefficients,
    **{"iterate_fe:" + system_id: (lambda n, s=system_id: series.iterate_fe(s, n))
       for system_id in FE_IDS},
}
# series request -> the name of the route function series calls
SERIES_ROUTES = {
    "ff_slice_series": "ff_slices_201_210",
    "census": "profile_slices_201_210",
    "f_coefficients": "_f_levels",
    **{"iterate_fe:" + system_id: "_fe_slices" for system_id in FE_IDS},
}
STRUCTURE = "structure-theorem"
NAMES = (*SYSTEMS, *SERIES_REQUESTS, STRUCTURE)
# routes whose count at depth 0 comes from the first step: a rules kernel
# also returns the accepted count of the level it is given, the census
# route steps the 201-210 kernel before it yields a level, and the
# structure route checks the empty word
STEP_FIRST = (*SYSTEMS, "census", STRUCTURE)


class Planted(Exception):
    """The failure a test plants in a step."""


def _fresh_system(system_id):
    s = SYSTEMS[system_id]
    return RuleSystem(s.name, s.basis, s.axiom, s.successors, s.accept,
                      s.state_str, s.kernel, s.accepted, s.to_dense, s.to_dict,
                      s.render)


def _planted_checker(monkeypatch):
    """Make the structure checker wrong on the word 010 only, so that
    the structure route checks no word past length 3."""
    real = checks.structure_check_201_210
    monkeypatch.setattr(checks, "structure_check_201_210",
                        lambda e: real(e) != (e == (0, 1, 0)))


def _route(name, monkeypatch):
    """(prefix, (namespace, key)) for the named route: its Prefix, empty,
    in place of the one the package uses, and where its step function
    is looked up when the route runs.  The structure route runs on a
    planted checker (see _planted_checker), so that it reaches any
    depth."""
    if name in SYSTEMS:
        system = _fresh_system(name)
        monkeypatch.setitem(SYSTEMS, name, system)
        return system.memo, (vars(system), "kernel")
    if name == STRUCTURE:
        _planted_checker(monkeypatch)
        run_check(STRUCTURE, 0)
    else:
        SERIES_REQUESTS[name](0)
    (prefix,) = [s for s in _STATES.values() if isinstance(s, Prefix)]
    prefix._memo = None
    if name == "ff_slice_series":
        return prefix, (vars(succession), "_step_ff")
    if name == "census":
        return prefix, (vars(SYSTEMS["201-210"]), "kernel")
    if name == "f_coefficients":
        return prefix, (vars(series), "_f_step")
    if name == STRUCTURE:
        return prefix, (vars(checks), "_structure_step")
    return prefix, (series._FE_STEP, name.split(":")[1])


def _fail_after(monkeypatch, slot, calls):
    """Make the step in slot raise Planted once it has run calls times."""
    namespace, key = slot
    real = namespace[key]
    done = [0]

    def failing(level, *args):
        if done[0] == calls:
            raise Planted
        done[0] += 1
        return real(level, *args)
    monkeypatch.setitem(namespace, key, failing)


def _assert_answers_equal(prefix, cold):
    """The prefix's counts and nearest levels equal the run from the
    axiom, cold = [(level, count) for depths 0..len(cold) - 1]."""
    top = len(cold) - 1
    for n in (0, 3, 20, 63, 64, 65, 100, top - 7, top):
        if n > top:
            continue
        assert prefix.counts(n) == [c for _, c in cold[:n + 1]], n
        depth, level = prefix.nearest(n)
        assert n - prefix._SPACING < depth <= n, n
        assert level == cold[depth][0], n
    counts, level, checkpoints = prefix._memo
    assert counts == [c for _, c in cold[:len(counts)]]
    assert level == cold[len(counts) - 1][0]
    assert list(checkpoints) == \
        [level for level, _ in cold[:len(counts):prefix._SPACING]]


@pytest.mark.parametrize("name", NAMES)
def test_a_failing_step_never_leaves_a_prefix_shallower(name, monkeypatch,
                                                        fresh_states):
    """A step that raises during an extension, a few steps in or at the
    first one, leaves the prefix at least as deep as it was, although
    the extension cut it back to its last checkpoint before stepping;
    afterwards every answer equals a run from the axiom."""
    prefix, slot = _route(name, monkeypatch)
    cold = list(prefix.route(130))
    prefix.counts(100)
    for calls in (4, 0):
        before = len(prefix._memo[0])
        with pytest.MonkeyPatch.context() as mp:
            _fail_after(mp, slot, calls)
            with pytest.raises(Planted):
                prefix.counts(120)
        after = len(prefix._memo[0])
        assert after > before if calls else after == before, calls
    _assert_answers_equal(prefix, cold)


@pytest.mark.parametrize("name", NAMES)
def test_a_failing_first_request_keeps_only_levels_it_reached(
        name, monkeypatch, fresh_states):
    """When the first step of a request on an empty prefix raises, the
    prefix holds no level it did not reach: the rules and census routes
    reach none (they step the kernel before they yield a level), nor does
    the structure route (it checks the empty word first); the other
    series routes reach the axiom."""
    prefix, slot = _route(name, monkeypatch)
    cold = list(prefix.route(70))
    with pytest.MonkeyPatch.context() as mp:
        _fail_after(mp, slot, 0)
        with pytest.raises(Planted):
            prefix.counts(10)
    if name in STEP_FIRST:
        assert prefix._memo is None
    else:
        assert prefix._memo == ([cold[0][1]], cold[0][0], (cold[0][0],))
    _assert_answers_equal(prefix, cold)


@pytest.mark.parametrize("name", NAMES)
def test_a_prefix_is_replaced_only_by_a_longer_one(name, monkeypatch,
                                                  fresh_states):
    """A request for depth 20 that finishes after one for depth 40, here
    served inside its first step, leaves the deeper prefix in place; and
    mutating an answer leaves the prefix intact."""
    prefix, (namespace, key) = _route(name, monkeypatch)
    cold = list(prefix.route(70))
    real = namespace[key]
    nested = []

    def serving_a_deeper_request_first(level, *args):
        if not nested:
            nested.append(None)
            nested.append(prefix.counts(40))
        return real(level, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(namespace, key, serving_a_deeper_request_first)
        assert prefix.counts(20) == [c for _, c in cold[:21]]
    assert nested == [None, [c for _, c in cold[:41]]]
    assert len(prefix._memo[0]) == 41
    for n in (40, 20, 0):
        answer = prefix.counts(n)
        answer[n] = -1
        answer.append(-1)
    _assert_answers_equal(prefix, cold)


@pytest.mark.parametrize("name", sorted(SERIES_REQUESTS))
def test_series_prefixes_keep_checkpoints_and_cut_back(name, monkeypatch,
                                                      fresh_states):
    """With checkpoints every 8 depths, a series prefix keeps the levels
    at 0, 8, 16, ..., and while a request extends it from depth 21 it is
    the consistent triple ending at the checkpoint 16."""
    prefix, (namespace, key) = _route(name, monkeypatch)
    prefix._SPACING = 8
    cold = list(prefix.route(30))
    prefix.counts(21)
    assert list(prefix._memo[2]) == [cold[d][0] for d in (0, 8, 16)]
    real = namespace[key]
    seen = []

    def watching(level):
        counts, deepest, checkpoints = prefix._memo
        seen.append((len(counts) - 1, deepest is checkpoints[-1]))
        return real(level)
    monkeypatch.setitem(namespace, key, watching)
    assert SERIES_REQUESTS[name](30) == [c for _, c in cold]
    assert seen == [(16, True)] * 9
    counts, level, checkpoints = prefix._memo
    assert len(counts) == 31
    assert level == cold[30][0]
    assert list(checkpoints) == [cold[d][0] for d in (0, 8, 16, 24)]
    assert prefix.nearest(23) == (16, cold[16][0])


@pytest.mark.parametrize("name", sorted(SERIES_REQUESTS))
def test_a_planted_route_replaces_the_prefix(name, monkeypatch,
                                             fresh_states):
    """A route planted in ``invseq.series`` after a warm request to depth
    40 is stepped from its axiom in a prefix of its own, which replaces
    the stored one, and gives the answers of the route it wraps;
    restoring the real route replaces that prefix in turn."""
    prefix, (namespace, key) = _route(name, monkeypatch)
    cold = [c for _, c in prefix.route(40)]
    request = SERIES_REQUESTS[name]
    assert request(40) == cold
    route_name = SERIES_ROUTES[name]
    real = getattr(series, route_name)
    real_step = namespace[key]
    steps = [0]

    def counted(level):
        steps[0] += 1
        return real_step(level)
    monkeypatch.setitem(namespace, key, counted)

    def planted(*args):
        return real(*args)
    stored = prefix
    for route in (planted, real):
        monkeypatch.setattr(series, route_name, route)
        steps[0] = 0
        assert request(30) == cold[:31]
        assert steps[0] == 30
        (new,) = [s for s in _STATES.values() if isinstance(s, Prefix)]
        assert new is not stored and new.route.args[1] is route
        stored = new


def test_a_planted_checker_replaces_the_structure_prefix(monkeypatch,
                                                         fresh_states):
    """A checker planted in ``invseq.checks`` after a warm request to
    length 6 is checked from the empty word in a prefix of its own, which
    replaces the stored one, and gives the line of a cold run on it;
    restoring the real checker replaces that prefix in turn."""
    real = checks.structure_check_201_210
    assert run_check(STRUCTURE, 6)[0]
    _planted_checker(monkeypatch)
    planted = checks.structure_check_201_210
    real_step = checks._structure_step
    steps = [0]

    def counted(*args):
        steps[0] += 1
        return real_step(*args)
    monkeypatch.setattr(checks, "_structure_step", counted)
    stored = _STATES[STRUCTURE]
    for checker, line in (
            (planted, (False, ["FAIL at e=010: checker False, avoidance True"])),
            (real, (True, ["OK: checker agrees with pattern avoidance for all "
                           "inversion sequences through n=5"]))):
        monkeypatch.setattr(checks, "structure_check_201_210", checker)
        steps[0] = 0
        assert run_check(STRUCTURE, 5) == line
        assert steps[0] == 6
        new = _STATES[STRUCTURE]
        assert new is not stored and new.route.args[0] is checker
        stored = new


def test_state_profile_resumes_from_the_nearest_stored_level(monkeypatch,
                                                            fresh_states):
    memo, _ = _route("201-210", monkeypatch)
    system = SYSTEMS["201-210"]
    memo.counts(150)
    for n, depth in ((150, 150), (149, 128), (128, 128), (127, 64), (5, 0)):
        assert memo.nearest(n)[0] == depth, n
        assert state_profile("201-210", n) == \
            system.to_dict(list(system.levels(n))[-1][0]), n


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
    requests = {
        **{system_id: (lambda n, s=system_id: succession.rule_counting_sequence(s, n))
           for system_id in SYSTEMS},
        **SERIES_REQUESTS,
    }
    for request in requests.values():
        request(2)
    prefixes = [state for key, state in _STATES.items()
                if key != "_check_system_violation"]
    assert len({id(p) for p in prefixes}) == 8
    assert all(isinstance(p, Prefix) for p in prefixes)
    for name, request in requests.items():
        memos = [p._memo for p in prefixes]
        request(5)
        moved = [p._memo is not m for p, m in zip(prefixes, memos)]
        assert sum(moved) == 1, name
