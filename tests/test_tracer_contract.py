"""The argument positions the benchmark's tracer reads.

`perfbench/spans.py` takes the SpMM's flop from its arguments 0 and 2, the
devices' byte counts from argument 3 of `WorkerState.forward` and
`WorkerState.backward`, and whether an `engine.epoch_forward` is a training
or an evaluation pass from its argument 1 when `training` is not passed by
keyword, all by position. If a parameter moved, its `_nbytes` would read 0
or a wrong array, or a pass would be named by the wrong argument, and the
metric would still be reported, so the benchmark's own smoke test would not
notice. Delete this test once the tracer binds arguments by name (ROADMAP
item 3).
"""

import inspect

import pytest

from slicegcn import engine, ops


def _names(fn) -> list:
    return list(inspect.signature(fn).parameters)


def test_spmm_norm_takes_adj_s_h_first():
    assert _names(ops.spmm_norm)[:3] == ["adj", "s", "h"]


@pytest.mark.parametrize("method,name", [("forward", "x"), ("backward", "d_h")])
def test_worker_pass_takes_its_input_at_index_3(method, name):
    assert _names(getattr(engine.WorkerState, method))[:4] == ["self", "adj", "s", name]


def test_epoch_forward_takes_training_at_index_1():
    assert _names(engine.epoch_forward)[:2] == ["run", "training"]
