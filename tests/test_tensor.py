import sys
import threading

import numpy as np
import pytest

from convattn import tensor as tt
from convattn.tensor import (
    GraphReuseError,
    Graph,
    ShapeError,
    Tensor,
    backward,
    conv2d_same,
    finite_diff_check,
    layer_norm,
    matmul,
    mean_,
    norm_mlp,
)
from oracles import conv2d_loops, mul, relu, sin, sum_


def test_matmul_identity(rng):
    a = Tensor(rng.normal(size=(4, 4)))
    out = matmul(a, Tensor(np.eye(4)))
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_errors(rng):
    with pytest.raises(ShapeError):
        matmul(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(rng.normal(size=(2, 2, 3))), Tensor(rng.normal(size=(3, 3, 2))))


def test_matmul_gradient_matches_finite_differences(rng):
    with tt.using_dtype(np.float64):
        b = Tensor(rng.uniform(-1, 1, size=(5, 3)))
        a = Tensor(rng.uniform(-1, 1, size=(4, 5)), requires_grad=True)
        report = finite_diff_check(lambda x: sum_(matmul(x, b)), a, step=1e-3, tol=1e-3)
        assert report.passed, report


def test_layer_norm_constant_token_is_zero():
    x = Tensor(np.full((2, 5), 3.7))
    out = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-5)


def test_layer_norm_mean_equals_beta_mean(rng):
    x = Tensor(rng.normal(size=(6, 8)))
    beta = Tensor(rng.normal(size=8))
    out = layer_norm(x, Tensor(np.ones(8)), beta)
    np.testing.assert_allclose(out.data.mean(axis=-1), beta.data.mean(), atol=1e-5)


def test_layer_norm_gradient(rng):
    with tt.using_dtype(np.float64):
        r = Tensor(rng.uniform(-1, 1, size=(3, 7)))
        gamma = Tensor(rng.uniform(0.5, 1.5, size=7))
        beta = Tensor(rng.uniform(-1, 1, size=7))
        x = Tensor(rng.uniform(-1, 1, size=(3, 7)), requires_grad=True)
        report = finite_diff_check(lambda t: sum_(mul(layer_norm(t, gamma, beta), r)), x)
        assert report.passed, report


@pytest.mark.parametrize("wrt", ["gamma", "beta"])
def test_layer_norm_gradient_over_affine_params(rng, wrt):
    # the row statistics are gemvs; x itself is checked above
    with tt.using_dtype(np.float64):
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 7)))
        r = Tensor(rng.uniform(-1, 1, size=x.shape))
        affine = {"gamma": Tensor(rng.uniform(0.5, 1.5, size=7)), "beta": Tensor(rng.uniform(-1, 1, size=7))}
        report = finite_diff_check(lambda _: sum_(mul(layer_norm(x, affine["gamma"], affine["beta"]), r)),
                                   affine[wrt])
        assert report.passed, report


def _norm_mlp_params(rng, d, hidden):
    """gamma, beta, w1, b1, w2, b2 of a LayerNorm -> MLP tail, drawn wide
    enough that the GELU sees both of its tails and its bend."""
    return [Tensor(rng.uniform(0.5, 1.5, size=d)), Tensor(rng.uniform(-0.5, 0.5, size=d)),
            Tensor(rng.uniform(-1, 1, size=(d, hidden))), Tensor(rng.uniform(-1, 1, size=hidden)),
            Tensor(rng.uniform(-1, 1, size=(hidden, d))), Tensor(rng.uniform(-1, 1, size=d))]


@pytest.mark.parametrize("wrt", ["x", "gamma", "beta", "w1", "b1", "w2", "b2"])
def test_norm_mlp_gradient(rng, wrt):
    with tt.using_dtype(np.float64):
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)))
        params = _norm_mlp_params(rng, 4, 6)
        r = Tensor(rng.uniform(-1, 1, size=x.shape))
        inputs = dict(zip(["x", "gamma", "beta", "w1", "b1", "w2", "b2"], [x, *params]))
        report = finite_diff_check(lambda _: sum_(mul(norm_mlp(*inputs.values()), r)), inputs[wrt])
        assert report.passed, (wrt, report)
        assert report.n_checked == inputs[wrt].size


def test_norm_mlp_shape_errors(rng):
    params = _norm_mlp_params(rng, 4, 6)
    with pytest.raises(ShapeError, match="4 channels"):
        norm_mlp(Tensor(rng.normal(size=(2, 5))), *params)
    with pytest.raises(ShapeError, match="disagree"):
        norm_mlp(Tensor(rng.normal(size=(2, 4))), *params[:3], Tensor(np.zeros(5)), *params[4:])


def test_conv2d_k1_is_pointwise_matmul(rng):
    x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
    kernel = rng.normal(size=(1, 1, 5, 6)).astype(np.float32)
    bias = rng.normal(size=6).astype(np.float32)
    out = conv2d_same(Tensor(x), Tensor(kernel), Tensor(bias))
    expected = x.reshape(-1, 5) @ kernel[0, 0] + bias
    np.testing.assert_allclose(out.data.reshape(-1, 6), expected, atol=1e-6)


def test_conv2d_delta_kernel_is_identity(rng):
    d = 4
    kernel = np.zeros((3, 3, d, d), dtype=np.float32)
    kernel[1, 1] = np.eye(d)
    x = rng.normal(size=(2, 5, 5, d)).astype(np.float32)
    out = conv2d_same(Tensor(x), Tensor(kernel), Tensor(np.zeros(d)))
    np.testing.assert_array_equal(out.data, x)


def test_conv2d_matches_loop_oracle(rng):
    x = rng.normal(size=(2, 5, 4, 3)).astype(np.float32)
    kernel = rng.normal(size=(3, 3, 3, 2)).astype(np.float32)
    bias = rng.normal(size=2).astype(np.float32)
    out = conv2d_same(Tensor(x), Tensor(kernel), Tensor(bias))
    expected = conv2d_loops(x, kernel, bias)
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_conv2d_deterministic_across_calls(rng):
    x = Tensor(rng.normal(size=(2, 6, 6, 4)))
    kernel = Tensor(rng.normal(size=(3, 3, 4, 4)))
    bias = Tensor(rng.normal(size=4))
    first = conv2d_same(x, kernel, bias).data
    second = conv2d_same(x, kernel, bias).data
    np.testing.assert_array_equal(first, second)


def test_conv2d_rejects_even_kernel(rng):
    with pytest.raises(ShapeError, match="odd"):
        conv2d_same(Tensor(rng.normal(size=(1, 4, 4, 2))),
                    Tensor(rng.normal(size=(2, 2, 2, 2))), Tensor(np.zeros(2)))


def test_conv2d_gradient(rng):
    with tt.using_dtype(np.float64):
        r = Tensor(rng.uniform(-1, 1, size=(2, 4, 3, 2)))
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 3, 3)))
        bias = Tensor(rng.uniform(-1, 1, size=2))
        kernel = Tensor(rng.uniform(-1, 1, size=(3, 3, 3, 2)), requires_grad=True)
        report = finite_diff_check(lambda k: sum_(mul(conv2d_same(x, k, bias), r)), kernel)
        assert report.passed, report


def test_backward_square_sum():
    x = Tensor([3.0], requires_grad=True)
    g = Graph()
    with g:
        loss = sum_(mul(x, x))
    grads = backward(loss, g)
    np.testing.assert_allclose(grads[x], [6.0], rtol=1e-6)
    assert x.grad is None  # the map is the call's own; nothing shared is written
    assert set(grads) == {x}  # intermediate gradients are dropped once consumed


def test_backward_unused_param_gets_zeros(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    unused = Tensor(rng.normal(size=4), requires_grad=True)
    g = Graph()
    with g:
        loss = sum_(mul(x, x))
    backward(loss, g, params=[x, unused])
    np.testing.assert_array_equal(unused.grad, np.zeros(4))


def test_backward_fanout_accumulates(rng):
    # sum over two paths equals the sum of per-path gradients
    x = Tensor(rng.normal(size=5), requires_grad=True)
    g = Graph()
    with g:
        loss = sum_(tt.add(mul(x, Tensor(np.full(5, 2.0))), sin(x)))
    grads = backward(loss, g)
    np.testing.assert_allclose(grads[x], 2.0 + np.cos(x.data), rtol=1e-5)


def test_backward_requires_scalar(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    g = Graph()
    with g:
        y = mul(x, x)
    with pytest.raises(ValueError, match="scalar"):
        backward(y, g)


def test_backward_twice_raises(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    g = Graph()
    with g:
        loss = sum_(mul(x, x))
    backward(loss, g)
    with pytest.raises(GraphReuseError):
        backward(loss, g)


def test_finite_diff_on_sum(rng):
    with tt.using_dtype(np.float64):
        x = Tensor(rng.normal(size=6), requires_grad=True)
        report = finite_diff_check(sum_, x)
    assert report.max_rel_err < 1e-6


def test_finite_diff_on_sin_sum(rng):
    with tt.using_dtype(np.float64):
        x = Tensor(rng.uniform(-1, 1, size=8), requires_grad=True)
        report = finite_diff_check(lambda t: sum_(sin(t)), x, step=1e-3)
        assert report.max_rel_err < 1e-4


def test_finite_diff_flags_relu_kink():
    with tt.using_dtype(np.float64):
        x = Tensor(np.array([0.0, 0.5, -0.5]), requires_grad=True)
        report = finite_diff_check(lambda t: sum_(relu(t)), x)
        assert report.kinks == [0]
        assert report.passed  # the kink is excluded from pass/fail


@pytest.mark.parametrize("op", ["gelu", "mean", "square"])
def test_gradients_on_random_inputs(op, rng):
    with tt.using_dtype(np.float64):
        x = Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True)
        tail = _norm_mlp_params(rng, 5, 4)
        f = {
            "gelu": lambda t: sum_(norm_mlp(t, *tail)),  # the GELU lives in the fused tail node
            "mean": lambda t: sum_(mean_(t, axis=1)),
            "square": lambda t: sum_(mul(t, t)),
        }[op]
        report = finite_diff_check(f, x, step=1e-3, tol=1e-3)
        assert report.passed, (op, report)


def test_float32_float64_forward_agreement(rng):
    x64 = rng.uniform(-1, 1, size=(2, 4, 4, 3))
    k64 = rng.uniform(-1, 1, size=(3, 3, 3, 3))
    b64 = rng.uniform(-1, 1, size=3)
    with tt.using_dtype(np.float64):
        ref = conv2d_same(Tensor(x64), Tensor(k64), Tensor(b64)).data
    out = conv2d_same(Tensor(x64), Tensor(k64), Tensor(b64)).data
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, ref, atol=1e-5)


def test_ops_outside_graph_do_not_record(rng):
    x = Tensor(rng.normal(size=4), requires_grad=True)
    out = mul(x, x)  # no active graph
    assert out.requires_grad is False
    g = Graph()
    with g:
        out2 = mul(x, x)
    assert out2.requires_grad is True
    assert len(g) == 1


def _in_thread(target):
    """Start ``target`` in a thread; returns (thread, errors it raised)."""
    errors = []

    def run():
        try:
            target()
        except BaseException as exc:  # surfaced by the caller's assert
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, errors


def test_graph_held_by_another_thread_records_nothing_here(rng):
    # inference in this thread while another thread holds a Graph open must
    # leave that graph empty and return an untracked output
    from convattn.blocks import build_model, model_forward

    model = build_model(8, 2, 3, 4, (16, 16), 3, 5, ["conv", "sa"], rng)
    images = Tensor(rng.normal(size=(2, 16, 16, 3)))
    opened, release, held = threading.Event(), threading.Event(), []

    def hold():
        with Graph() as g:
            held.append(g)
            opened.set()
            release.wait(30)

    thread, errors = _in_thread(hold)
    try:
        assert opened.wait(30)
        logits = model_forward(images, model)
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive() and not errors
    assert len(held[0]) == 0
    assert logits.requires_grad is False


def test_graphs_exit_out_of_order_across_threads():
    # thread A enters, thread B enters, A exits before B: each thread pops
    # only its own graph
    steps = {name: threading.Event() for name in ("a_in", "b_in", "a_out")}

    def thread_a():
        with Graph():
            steps["a_in"].set()
            assert steps["b_in"].wait(30)
        steps["a_out"].set()

    def thread_b():
        assert steps["a_in"].wait(30)
        with Graph():
            steps["b_in"].set()
            assert steps["a_out"].wait(30)

    started = [_in_thread(thread_a), _in_thread(thread_b)]
    for thread, _ in started:
        thread.join(30)
    assert not any(thread.is_alive() for thread, _ in started)
    assert [errors for _, errors in started] == [[], []]
    assert tt._active_graph() is None


def test_default_dtype_is_per_thread():
    inside, release, seen = threading.Event(), threading.Event(), []

    def widen():
        with tt.using_dtype(np.float64):
            seen.append(Tensor([1.0]).data.dtype)
            inside.set()
            release.wait(30)

    thread, errors = _in_thread(widen)
    try:
        assert inside.wait(30)
        here = Tensor([1.0]).data.dtype
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive() and not errors
    assert seen == [np.float64] and here == np.float32


def test_threads_keep_their_own_tape_and_dtype_under_switching():
    # more threads than cores, switching every microsecond: each graph holds
    # exactly its own thread's op, in that thread's dtype
    dtypes = [np.float32, np.float64] * 3
    interval = sys.getswitchinterval()

    def worker(dtype):
        def run():
            x = Tensor(np.ones(3, dtype=dtype), requires_grad=True, dtype=dtype)
            for _ in range(200):
                with tt.using_dtype(dtype), Graph() as g:
                    out = mul(x, x)
                    assert len(g) == 1 and g._nodes[0][0] is out
                    assert Tensor([1.0]).data.dtype == dtype

        return run

    sys.setswitchinterval(1e-6)
    try:
        started = [_in_thread(worker(dtype)) for dtype in dtypes]
        for thread, _ in started:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread, _ in started)
    assert [errors for _, errors in started] == [[]] * len(dtypes)
