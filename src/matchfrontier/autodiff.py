"""The training tape's reverse pass, plus the Adam-style optimizer with
decoupled weight decay and the step-wise learning-rate schedule.

A tape holds the parameter leaves and nodes that carry their own
backprop: the network's marginals (`net.forward_vjp`) and the loss (its
closed-form gradient, in `train`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TapeUsageError(RuntimeError):
    pass


class NumericError(ArithmeticError):
    pass


class Tape:
    """Append-only record of one forward build; replay order is creation
    order, which is topological by construction."""

    def __init__(self):
        self.nodes = []
        self._backward_done = False

    def leaf(self, value) -> "Node":
        return Node(self, np.asarray(value, dtype=np.float64), (), None)


class Node:
    __slots__ = ("tape", "value", "parents", "backprop", "grad")

    def __init__(self, tape, value, parents, backprop):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.backprop = backprop  # grad -> the parents' grads, in order
        self.grad = None
        tape.nodes.append(self)


def backward(tape: Tape, output: Node) -> None:
    """Accumulate gradients for every node on the tape; read them off the
    leaves afterwards.  One backward pass per tape."""
    if tape._backward_done:
        raise TapeUsageError("backward already ran on this tape")
    if output.value.ndim != 0 and output.value.size != 1:
        raise TapeUsageError("backward requires a scalar output")
    tape._backward_done = True
    for node in tape.nodes:
        node.grad = np.zeros_like(node.value)
    output.grad = np.ones_like(output.value)
    for node in reversed(tape.nodes):
        if node.backprop is None or not np.any(node.grad):
            continue
        for parent, grad in zip(node.parents, node.backprop(node.grad)):
            parent.grad = parent.grad + grad


# ---------------------------------------------------------------------------
# Optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """What an Adam step changes: the step count and the moments, which
    mirror the parameter structure (per layer, a [weight, bias] list)."""

    t: int
    m: list
    v: list

    @classmethod
    def for_params(cls, params) -> "OptimizerState":
        return cls(0, [[np.zeros_like(a) for a in group] for group in params],
                   [[np.zeros_like(a) for a in group] for group in params])


def adam_step(state: OptimizerState, params, grads, lr: float, weight_decay: float):
    """One bias-corrected Adam update at learning rate `lr`; the weight
    decay is applied directly to the parameters, not folded into the
    gradients.  Returns the updated parameter list; the state is updated
    in place."""
    for group in grads:
        for g in group:
            if not np.all(np.isfinite(g)):
                raise NumericError("non-finite gradient; update aborted")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    new_params = []
    for group, grad_group, m_group, v_group in zip(params, grads, state.m, state.v):
        new_group = []
        for j, (param, grad) in enumerate(zip(group, grad_group)):
            m = m_group[j] = ADAM_BETA1 * m_group[j] + (1.0 - ADAM_BETA1) * grad
            v = v_group[j] = ADAM_BETA2 * v_group[j] + (1.0 - ADAM_BETA2) * grad * grad
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            new_group.append(param * (1.0 - lr * weight_decay) - update)
        new_params.append(tuple(new_group))
    return new_params, state


def lr_schedule(base_lr: float, iteration: int, milestones) -> float:
    """Halve the learning rate at each milestone iteration."""
    return base_lr * 0.5 ** sum(1 for ms in sorted(milestones) if ms <= iteration)
