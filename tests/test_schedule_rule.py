"""Each layer's count of convolution epochs against the per-kind branches
and the epoch-by-epoch scan it replaced (``oracles``)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from convattn.schedule import KINDS, SwitchSchedule, conv_epochs, mode_at, switch_epochs
from oracles import mode_at_branches, switch_epochs_scan


@st.composite
def schedules(draw):
    total, layers, kind = draw(st.integers(1, 500)), draw(st.integers(1, 12)), draw(st.sampled_from(KINDS))
    e_switch = draw(st.integers(0, total)) if kind == "uniform" else None
    return SwitchSchedule(total, layers, kind, e_switch)


@settings(max_examples=200, deadline=None)
@given(sched=schedules())
def test_conv_epoch_counts_match_the_branch_oracle(sched):
    for layer in range(1, sched.num_layers + 1):
        modes = [mode_at(sched, t, layer) for t in range(1, sched.total_epochs + 1)]
        assert modes == [mode_at_branches(sched, t, layer) for t in range(1, sched.total_epochs + 1)]
        assert modes.count("conv") == conv_epochs(sched, layer)
    assert switch_epochs(sched) == switch_epochs_scan(sched)
