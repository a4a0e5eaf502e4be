import dataclasses

import numpy as np
import pytest

from matchfrontier.autodiff import (Node, NumericError, OptimizerState, Tape,
                                    TapeUsageError, adam_step, backward,
                                    lr_schedule)


def scaled(node, factor):
    """A node holding factor * node, with its backprop."""
    return Node(node.tape, factor * node.value, (node,), lambda g: (factor * g,))


class TestTape:
    def test_double_backward_rejected(self):
        tape = Tape()
        out = scaled(tape.leaf(np.array(2.0)), 3.0)
        backward(tape, out)
        with pytest.raises(TapeUsageError):
            backward(tape, out)

    def test_nonscalar_output_rejected(self):
        tape = Tape()
        node = scaled(tape.leaf(np.ones(3)), 2.0)
        with pytest.raises(TapeUsageError):
            backward(tape, node)

    def test_grad_accumulates_through_fan_out(self):
        # out = a * a + 2a reaches a three times: twice through the square
        # and once through the scaled branch, so d out / da = 2a + 2 = 8
        tape = Tape()
        a = tape.leaf(np.array(3.0))
        square = Node(tape, a.value * a.value, (a, a),
                      lambda g: (g * a.value, g * a.value))
        double = scaled(a, 2.0)
        out = Node(tape, square.value + double.value, (square, double), lambda g: (g, g))
        backward(tape, out)
        assert a.grad == pytest.approx(8.0)
        assert double.grad == pytest.approx(1.0)


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
        # the learning rate and decay are each step's arguments: the
        # schedule's halving lands between steps 3 and 4
        rng = np.random.default_rng(4)
        params = [(rng.normal(size=(3, 2)), rng.normal(size=2))]
        state = OptimizerState.for_params(params)
        ref_m = [np.zeros((3, 2)), np.zeros(2)]
        ref_v = [np.zeros((3, 2)), np.zeros(2)]
        ref = [params[0][0].copy(), params[0][1].copy()]
        for t in range(1, 6):
            lr = lr_schedule(0.01, t, (4,))
            grads = [(rng.normal(size=(3, 2)), rng.normal(size=2))]
            params, state = adam_step(state, params, grads, lr, 0.02)
            ref = reference_adamw(ref, list(grads[0]), ref_m, ref_v, t, lr, 0.02)
        assert np.allclose(params[0][0], ref[0], atol=1e-12)
        assert np.allclose(params[0][1], ref[1], atol=1e-12)

    def test_state_is_step_and_moments(self):
        params = [(np.ones((2, 2)), np.ones(2))]
        state = OptimizerState.for_params(params)
        assert [f.name for f in dataclasses.fields(OptimizerState)] == ["t", "m", "v"]
        assert state.t == 0
        for moments in (state.m, state.v):
            assert [[a.shape for a in group] for group in moments] == [[(2, 2), (2,)]]
            assert not any(np.any(a) for group in moments for a in group)

    def test_nonfinite_gradient_raises(self):
        params = [(np.ones((2, 2)), np.ones(2))]
        state = OptimizerState.for_params(params)
        grads = [(np.full((2, 2), np.nan), np.zeros(2))]
        with pytest.raises(NumericError):
            adam_step(state, params, grads, 0.01, 0.01)

    def test_params_unchanged_on_failure(self):
        params = [(np.ones((2, 2)), np.ones(2))]
        state = OptimizerState.for_params(params)
        try:
            adam_step(state, params, [(np.full((2, 2), np.inf), np.zeros(2))], 0.01, 0.01)
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
