import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convattn.schedule import CONV, SA, SwitchSchedule, interpolation_settings, mode_at, switch_epochs


def test_epoch_one_is_all_conv_when_t_large():
    sched = SwitchSchedule(400, 6)
    assert all(mode_at(sched, 1, layer) == CONV for layer in range(1, 7))


def test_final_epoch_is_all_sa():
    sched = SwitchSchedule(400, 6)
    assert all(mode_at(sched, 400, layer) == SA for layer in range(1, 7))


def test_reference_switch_table():
    sched = SwitchSchedule(400, 6)
    assert switch_epochs(sched) == [(6, 58), (5, 115), (4, 172), (3, 229), (2, 286), (1, 343)]


def test_switch_table_rear_layers_first():
    epochs = switch_epochs(SwitchSchedule(400, 6))
    layers = [layer for layer, _ in epochs]
    firsts = [e for _, e in epochs]
    assert layers == [6, 5, 4, 3, 2, 1]
    assert firsts == sorted(firsts)
    assert len(set(firsts)) == len(firsts)


def test_uniform_switches_all_layers_after_e_switch():
    sched = SwitchSchedule(300, 4, "uniform", 250)
    assert switch_epochs(sched) == [(4, 251), (3, 251), (2, 251), (1, 251)]
    assert mode_at(sched, 250, 2) == CONV
    assert mode_at(sched, 251, 2) == SA


def test_all_conv_never_switches():
    sched = SwitchSchedule(50, 3, "all-conv")
    assert switch_epochs(sched) == []
    assert mode_at(sched, 50, 1) == CONV


def test_all_sa_from_first_epoch():
    sched = SwitchSchedule(50, 3, "all-sa")
    assert switch_epochs(sched) == []
    assert mode_at(sched, 1, 2) == SA


def test_out_of_range_rejected():
    sched = SwitchSchedule(10, 2)
    with pytest.raises(ValueError):
        mode_at(sched, 0, 1)
    with pytest.raises(ValueError):
        mode_at(sched, 11, 1)
    with pytest.raises(ValueError):
        mode_at(sched, 5, 3)


def test_invalid_construction():
    with pytest.raises(ValueError):
        SwitchSchedule(0, 4)
    with pytest.raises(ValueError):
        SwitchSchedule(10, 0)
    with pytest.raises(ValueError):
        SwitchSchedule(10, 2, "uniform")  # missing e_switch
    with pytest.raises(ValueError):
        SwitchSchedule(10, 2, "uniform", 11)
    with pytest.raises(ValueError):
        SwitchSchedule(10, 2, "bogus")
    with pytest.raises(ValueError):
        SwitchSchedule(10, 2, "linear", 5)  # e_switch without uniform


@settings(max_examples=60, deadline=None)
@given(total=st.integers(1, 500), layers=st.integers(1, 12))
def test_prs_linear_monotone_conv_then_sa(total, layers):
    sched = SwitchSchedule(total, layers)
    for layer in range(1, layers + 1):
        seen_sa = False
        for t in range(1, total + 1):
            mode = mode_at(sched, t, layer)
            if mode == SA:
                seen_sa = True
            else:
                assert not seen_sa, "a layer flipped back from SA to conv"


@settings(max_examples=60, deadline=None)
@given(total=st.integers(2, 500), layers=st.integers(2, 12))
def test_prs_linear_rear_layers_switch_first(total, layers):
    sched = SwitchSchedule(total, layers)
    first_sa = {}
    for layer in range(1, layers + 1):
        first_sa[layer] = next(
            (t for t in range(1, total + 1) if mode_at(sched, t, layer) == SA), total + 1
        )
    for layer in range(1, layers):
        assert first_sa[layer] >= first_sa[layer + 1]


@settings(max_examples=40, deadline=None)
@given(layers=st.integers(1, 10), extra=st.integers(1, 50))
def test_coverage_with_enough_epochs(layers, extra):
    # with T >= L+1, every layer gets at least one epoch in each mode unless
    # its conv window rounds down to zero epochs
    total = layers + extra
    sched = SwitchSchedule(total, layers)
    for layer in range(1, layers + 1):
        conv_epochs = sum(mode_at(sched, t, layer) == CONV for t in range(1, total + 1))
        sa_epochs = total - conv_epochs
        threshold = total * (layers + 1 - layer) // (layers + 1)
        if threshold >= 1:
            assert conv_epochs >= 1
        assert sa_epochs >= 1


def test_interpolation_settings_reference():
    settings_list = interpolation_settings(300, 6)
    assert [s.e_switch for s in settings_list] == [300, 250, 150, 50]
    assert all(s.kind == "uniform" and s.total_epochs == 300 for s in settings_list)
    # setting 1 never switches
    assert switch_epochs(settings_list[0]) == []


def test_interpolation_settings_desk_scaling():
    settings_list = interpolation_settings(30, 4)
    assert [s.e_switch for s in settings_list] == [30, 25, 15, 5]


def test_interpolation_settings_short_run_has_no_duplicates():
    # at T=2 the 5/6 split rounds to the 1/1 split's switch epoch; that
    # setting is trained once, not twice
    assert [s.e_switch for s in interpolation_settings(2, 2)] == [2, 1, 0]
