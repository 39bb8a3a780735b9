import pytest
from hypothesis import given, settings, strategies as st

from invseq.oracle import count_sequence
from invseq.succession import (
    count_via_rules,
    emit_diagram,
    get_system,
    profile_slices_201_210,
    rule_counting_sequence,
    state_profile,
    step,
    step_fast,
)

F, T = False, True

SEQ_201_210 = [1, 1, 2, 6, 24, 116, 632, 3720, 23072, 148528, 983072]


def test_get_system():
    assert get_system("201-210").name == "201-210"
    with pytest.raises(ValueError):
        get_system("132")


def test_step_singleton_worked_example():
    sys_ = get_system("201-210")
    out = step(sys_, {(3, F, F): 1})
    assert out == {(4, F, F): 1, (3, F, F): 1, (2, F, F): 1, (1, F, F): 1,
                   (3, T, T): 1, (2, T, T): 2, (1, T, T): 3}


def test_step_axiom_and_empty():
    sys_ = get_system("201-210")
    assert step(sys_, {(0, F, F): 1}) == {(1, F, F): 1}
    assert step(sys_, {}) == {}
    assert step_fast(sys_, {}) == {}


def test_step_rejects_impossible_state():
    with pytest.raises(ValueError):
        step(get_system("201-210"), {(2, F, T): 1})


def test_state_profile_pinned():
    profile = state_profile("201-210", 3)
    assert profile[(3, F, F)] == 1
    assert profile[(2, T, T)] == 2
    assert profile[(1, T, T)] == 4
    assert profile == {(3, F, F): 1, (2, F, F): 2, (1, F, F): 2,
                       (2, T, T): 2, (1, T, T): 4, (2, T, F): 1}
    assert state_profile("201-210", 0) == {(0, F, F): 1}
    assert state_profile("201-210", 1) == {(1, F, F): 1}


def test_count_via_rules_pinned():
    assert count_via_rules("201-210", 3) == 6
    assert count_via_rules("201-210", 7) == 3720
    assert count_via_rules("201-210", 10) == 983072
    assert count_via_rules("011-201", 5) == 51
    assert count_via_rules("010-100-120-210", 5) == 51


def test_rule_counting_sequence_pinned():
    assert rule_counting_sequence("201-210", 10) == SEQ_201_210


def test_no_impossible_state_is_ever_produced():
    sys_ = get_system("201-210")
    level = {sys_.axiom: 1}
    for _ in range(15):
        level = step(sys_, level)
        assert not any(ell is False and c is True for _, ell, c in level)


def test_oracle_equivalence_201_210():
    assert count_sequence(((2, 0, 1), (2, 1, 0)), 12) == \
        rule_counting_sequence("201-210", 12)


def test_step_fast_equals_step_from_axiom():
    for system_id in ("201-210", "011-201", "010-100-120-210"):
        sys_ = get_system(system_id)
        level = {sys_.axiom: 1}
        for depth in range(50):
            slow = step(sys_, level)
            fast = step_fast(sys_, level)
            assert fast == slow, (system_id, depth)
            level = fast


@pytest.mark.parametrize("system_id",
                         ["201-210", "011-201", "010-100-120-210"])
def test_dense_stepping_equals_literal_steps(system_id):
    """state_profile and rule_counting_sequence step the dense kernels;
    both must match n literal step() calls from the axiom."""
    sys_ = get_system(system_id)
    counts = rule_counting_sequence(system_id, 12)
    level = {sys_.axiom: 1}
    for n in range(13):
        assert state_profile(system_id, n) == level, n
        assert counts[n] == sum(m for s, m in level.items() if sys_.accept(s))
        level = step(sys_, level)


_FLAGS = [(F, F), (T, F), (T, T)]

_state_3 = st.tuples(st.integers(0, 25), st.sampled_from(_FLAGS)).map(
    lambda t: (t[0],) + t[1])
_state_2 = st.tuples(st.integers(0, 25), st.integers(0, 25))
_counts = st.integers(min_value=1, max_value=10**9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_step_fast_equals_step_on_random_levels(data):
    system_id = data.draw(st.sampled_from(
        ["201-210", "011-201", "010-100-120-210"]))
    state = _state_3 if system_id == "201-210" else _state_2
    level = data.draw(st.dictionaries(state, _counts, max_size=8))
    sys_ = get_system(system_id)
    assert step_fast(sys_, level) == step(sys_, level)


def test_profile_slices_match_state_profile():
    slices = list(profile_slices_201_210(6))
    assert len(slices) == 7
    for n, (a, b, c) in enumerate(slices):
        profile = state_profile("201-210", n)
        assert {k: m for k, m in enumerate(a) if m} == \
            {k: m for (k, ell, com), m in profile.items() if not ell and not com}
        assert {k: m for k, m in enumerate(b) if m} == \
            {k: m for (k, ell, com), m in profile.items() if ell and not com}
        assert {k: m for k, m in enumerate(c) if m} == \
            {k: m for (k, ell, com), m in profile.items() if ell and com}


def test_diagram_depth_zero():
    text = emit_diagram("201-210", 0)
    assert '"L0 (0,F,F)"' in text
    assert "->" not in text


def test_diagram_depth_three():
    text = emit_diagram("201-210", 3)
    # the (2,F,F) state at depth 2 produces (1,T,T) twice
    assert '"L2 (2,F,F)" -> "L3 (1,T,T)" [mult=2];' in text
    counts = {}
    for line in text.splitlines():
        if "count=" in line:
            label = line.split('label="')[1].split('"')[0]
            count = int(line.split("count=")[1].split("]")[0])
            if line.strip().startswith('"L3'):
                counts[label] = count
    assert counts == {"(3,F,F)": 1, "(2,F,F)": 2, "(1,F,F)": 2,
                      "(2,T,T)": 2, "(1,T,T)": 4, "(2,T,F)": 1}


def test_diagram_deterministic():
    assert emit_diagram("011-201", 3) == emit_diagram("011-201", 3)
