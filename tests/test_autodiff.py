import numpy as np
import pytest

from matchfrontier.autodiff import (NumericError, OptimizerState, Tape,
                                    TapeUsageError, adam_step, backward,
                                    lr_schedule)


def finite_diff(fn, x, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def check_unary(op_name, x, **kwargs):
    tape = Tape()
    node = getattr(tape.leaf(x), op_name)(**kwargs)
    out = (node * node).sum()  # squared sum makes a nontrivial chain
    backward(tape, out)

    def fn(arr):
        t = Tape()
        n = getattr(t.leaf(arr), op_name)(**kwargs)
        return float((n * n).sum().value)

    assert np.allclose(tape.nodes[0].grad, finite_diff(fn, x.copy()), atol=1e-6)


class TestOps:
    def test_add_broadcast(self):
        tape = Tape()
        a, b = tape.leaf(np.ones((3, 4))), tape.leaf(np.arange(4.0))
        backward(tape, (a + b).sum())
        assert np.array_equal(a.grad, np.ones((3, 4)))
        assert np.array_equal(b.grad, np.full(4, 3.0))

    def test_mul_div(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, (3, 3))
        y = rng.uniform(0.5, 2.0, (3, 3))
        tape = Tape()
        a, b = tape.leaf(x), tape.leaf(y)
        backward(tape, ((a * b) / (a + b)).sum())
        fd_a = finite_diff(lambda v: float((v * y / (v + y)).sum()), x.copy())
        assert np.allclose(a.grad, fd_a, atol=1e-6)

    def test_relu(self):
        check_unary("relu", np.array([-1.0, 0.5, 2.0]))

    def test_relu_kink_slope_zero(self):
        tape = Tape()
        a = tape.leaf(np.array([0.0]))
        backward(tape, a.relu().sum())
        assert a.grad[0] == 0.0

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 4))
        tape = Tape()
        a = tape.leaf(x)
        out = (a.sum(axis=(0, 2), keepdims=True) * 2.0).sum()
        backward(tape, out)
        assert np.array_equal(a.grad, np.full_like(x, 2.0))

    def test_reshape_transpose(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3))
        tape = Tape()
        a = tape.leaf(x)
        backward(tape, (a.reshape(6) * np.arange(6.0)).sum())
        assert np.array_equal(a.grad, np.arange(6.0).reshape(2, 3))

    def test_mean(self):
        tape = Tape()
        a = tape.leaf(np.ones((4,)))
        backward(tape, a.mean())
        assert np.allclose(a.grad, 0.25)


class TestTape:
    def test_double_backward_rejected(self):
        tape = Tape()
        out = tape.leaf(np.array(2.0)) * 3.0
        backward(tape, out)
        with pytest.raises(TapeUsageError):
            backward(tape, out)

    def test_nonscalar_output_rejected(self):
        tape = Tape()
        node = tape.leaf(np.ones(3))
        with pytest.raises(TapeUsageError):
            backward(tape, node)

    def test_grad_accumulates_through_fan_out(self):
        tape = Tape()
        a = tape.leaf(np.array(3.0))
        backward(tape, a * a + a)
        assert a.grad == pytest.approx(7.0)


def reference_adamw(params, grads, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Straight transcription of decoupled-weight-decay Adam, scalar style."""
    new = []
    for p, g, mm, vv in zip(params, grads, m, v):
        mm[:] = b1 * mm + (1 - b1) * g
        vv[:] = b2 * vv + (1 - b2) * g * g
        mhat = mm / (1 - b1 ** t)
        vhat = vv / (1 - b2 ** t)
        new.append(p * (1 - lr * wd) - lr * mhat / (np.sqrt(vhat) + eps))
    return new


class TestOptimizer:
    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        params = [(rng.normal(size=(3, 2)), rng.normal(size=2))]
        state = OptimizerState.for_params(params, lr=0.01, weight_decay=0.02)
        ref_m = [np.zeros((3, 2)), np.zeros(2)]
        ref_v = [np.zeros((3, 2)), np.zeros(2)]
        ref = [params[0][0].copy(), params[0][1].copy()]
        for t in range(1, 6):
            grads = [(rng.normal(size=(3, 2)), rng.normal(size=2))]
            params, state = adam_step(state, params, grads)
            ref = reference_adamw(ref, list(grads[0]), ref_m, ref_v, t, 0.01, 0.02)
        assert np.allclose(params[0][0], ref[0], atol=1e-12)
        assert np.allclose(params[0][1], ref[1], atol=1e-12)

    def test_nonfinite_gradient_raises(self):
        params = [(np.ones((2, 2)), np.ones(2))]
        state = OptimizerState.for_params(params, lr=0.01, weight_decay=0.01)
        grads = [(np.full((2, 2), np.nan), np.zeros(2))]
        with pytest.raises(NumericError):
            adam_step(state, params, grads)

    def test_params_unchanged_on_failure(self):
        params = [(np.ones((2, 2)), np.ones(2))]
        state = OptimizerState.for_params(params, lr=0.01, weight_decay=0.01)
        try:
            adam_step(state, params, [(np.full((2, 2), np.inf), np.zeros(2))])
        except NumericError:
            pass
        assert np.array_equal(params[0][0], np.ones((2, 2)))
        assert state.t == 0


class TestSchedule:
    def test_halves_at_milestones(self):
        assert lr_schedule(0.4, 0, (10, 20)) == 0.4
        assert lr_schedule(0.4, 10, (10, 20)) == 0.2
        assert lr_schedule(0.4, 25, (10, 20)) == 0.1

    def test_empty_milestones(self):
        assert lr_schedule(0.1, 10 ** 6, ()) == 0.1
