"""The benchmark's own span arithmetic, on hand-built spans."""

import threading

import pytest

import harness
import spans as sp


def span(id, name, start, end, parent=None, device=None, epoch=0, **attrs):
    return sp.Span(id=id, name=name, start=start, end=end, parent=parent, thread=0,
                   device=device, epoch=epoch, attrs=attrs)


def test_covered_merges_overlaps_and_clips():
    assert sp.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert sp.covered([(0, 2), (1, 3), (5, 6)], lo=2.5, hi=5.5) == 1.0
    assert sp.covered([]) == 0.0
    assert sp.covered([(3, 3)]) == 0.0


def test_self_time_subtracts_children_once():
    spans = [
        span(0, "nn.gcn_layer_forward", 0.0, 10.0),
        span(1, "ops.spmm_norm", 1.0, 4.0, parent=0),
        span(2, "ops.dropout", 3.0, 5.0, parent=0),  # overlaps the first child
        span(3, "ops.spmm_norm", 9.0, 12.0, parent=0),  # runs past the parent
    ]
    st = sp.self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[1] == 3.0 and st[2] == 2.0


def test_concurrency_serialized_and_overlapped():
    serial = [
        span(1, "worker.forward", 0.0, 1.0, parent=0, device=0),
        span(2, "worker.forward", 1.0, 2.0, parent=0, device=1),
    ]
    assert sp.worker_concurrency(serial) == pytest.approx(1.0)
    overlapped = [
        span(1, "worker.forward", 0.0, 2.0, parent=0, device=0),
        span(2, "worker.forward", 0.0, 2.0, parent=0, device=1),
        # a second phase, half overlapped: busy 2, wall 1.5
        span(3, "worker.backward", 3.0, 4.0, parent=5, device=0),
        span(4, "worker.backward", 3.5, 4.5, parent=5, device=1),
    ]
    assert sp.worker_concurrency(overlapped) == pytest.approx((4 + 2) / (2 + 1.5))
    assert sp.worker_concurrency([]) == 0.0


def test_imbalance_is_max_over_mean_device_busy():
    spans = [
        span(1, "worker.forward", 0.0, 3.0, device=0),
        span(2, "worker.forward", 0.0, 1.0, device=1),
        span(3, "ops.spmm_norm", 0.0, 9.0, device=1),  # not a worker span
    ]
    assert sp.worker_imbalance(spans) == pytest.approx(3.0 / 2.0)


def test_uncovered_share_of_epoch_window():
    spans = [span(0, "engine.train_forward", 1.0, 4.0), span(1, "ops.spmm_norm", 2.0, 3.0, parent=0),
             span(2, "engine.evaluate", 6.0, 8.0)]
    assert sp.uncovered_share(spans, 0.0, 10.0) == pytest.approx(0.5)
    assert sp.uncovered_share(spans, 5.0, 5.0) == 0.0


def test_epoch_metrics_from_hand_built_epoch():
    ss = [
        span(0, "engine.train_forward", 0.0, 4.0),
        span(1, "slicing.feature_fusion_forward", 0.0, 1.0, parent=0),
        span(2, "nn.mlp_forward", 0.0, 1.0, parent=1),  # fusion MLP, not the classifier
        span(3, "worker.forward", 1.0, 3.0, parent=0, device=0, in_bytes=8, out_bytes=4, cache_bytes=40),
        span(4, "worker.forward", 1.0, 3.0, parent=0, device=1, in_bytes=8, out_bytes=4, cache_bytes=48),
        span(5, "ops.spmm_norm", 1.0, 2.0, parent=3, device=0, flop=2e9),
        span(6, "nn.mlp_forward", 3.0, 4.0, parent=0),  # classifier
        span(7, "engine.epoch_backward", 4.0, 6.0),
        span(8, "worker.backward", 4.0, 6.0, parent=7, device=0, in_bytes=4, out_bytes=0),
        span(9, "worker.backward", 4.0, 5.0, parent=7, device=1, in_bytes=4, out_bytes=0),
    ]
    m = harness.epoch_layer_metrics(ss, 0.0, 8.0, sp.self_times(ss))
    assert m["ops.spmm_norm_share"] == pytest.approx(1 / 8)
    assert m["ops.spmm_norm_gflop"] == pytest.approx(2.0)
    assert m["nn.classifier_s"] == pytest.approx(1.0)
    assert m["slicing.fusion_share"] == pytest.approx(1 / 8)
    assert m["engine.workers.concurrency"] == pytest.approx((4 + 3) / (2 + 2))
    assert m["engine.worker.imbalance"] == pytest.approx(4 / 3.5)
    assert m["engine.master.serial_share"] == pytest.approx(1 - 4 / 8)
    assert m["engine.untraced_share"] == pytest.approx(2 / 8)
    assert (m["engine.comm.scatter_bytes"], m["engine.comm.gather_bytes"], m["engine.comm.grad_bytes"]) == (16, 8, 8)
    assert m["engine.comm.rounds"] == 3  # forward in + out, backward in
    assert m["engine.worker.cache_bytes"] == 48


def test_tracer_parents_pool_spans_to_the_dispatching_call():
    tracer = sp.Tracer()
    outer = tracer.open("engine.train_forward")
    inner = []

    def work():
        s = tracer.open("worker.forward", device=1)
        child = tracer.open("ops.spmm_norm")
        tracer.close(child)
        tracer.close(s)
        inner.extend([s, child])

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.close(outer)
    s, child = inner
    assert s.parent == outer.id and child.parent == s.id
    assert child.device == 1 and outer.device is None
    assert [x.id for x in tracer.take()] == [outer.id, s.id, child.id]
    assert tracer.spans == []


def test_patches_restore_originals():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    tracer = sp.Tracer()
    original = Owner.f
    with sp.Patches() as patches:
        patches.wrap(Owner, "f", tracer.wrapper("owner.f", attrs=lambda a, k, r: {"out": r}))
        assert Owner.f(1) == 2
    assert Owner.f is original
    (s,) = tracer.spans
    assert s.name == "owner.f" and s.attrs == {"out": 2} and s.end >= s.start
