"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor records the op that produced it and a closure that routes the output
gradient to its parents; calling backward() on a scalar output runs the
closures in reverse topological order. Tapes are implicit (the graph hangs off
the output node), single-use, and confined to one thread.

Subexpressions that cannot influence any differentiable leaf are folded into
constants on the spot, so wrapping plain numpy data in Tensors costs almost
nothing extra during the backward sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .signals import AnalyticPulse, TimeGrid, superpose_arrivals


class NumericOverflowError(ArithmeticError):
    """A non-finite value appeared while evaluating or differentiating."""


_node_ids = itertools.count()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """Array-valued node in the differentiation graph."""

    __slots__ = ("value", "grad", "op", "node_id", "needs_grad", "_parents", "_backward")

    # makes ndarray <op> Tensor defer to the reflected operators below instead
    # of numpy broadcasting over an object array
    __array_ufunc__ = None

    def __init__(self, value, parents=(), op="leaf", needs_grad=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.op = op
        self.node_id = next(_node_ids)
        self._parents = tuple(parents)
        self._backward = None
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in self._parents)
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    # -- graph construction helpers ------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x, needs_grad=False)

    @staticmethod
    def _make(value, parents, op, backward):
        parents = tuple(p for p in parents if p.needs_grad)
        if not parents:
            return Tensor(value, op=op, needs_grad=False)
        out = Tensor(value, parents=parents, op=op)
        out._backward = backward
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        out_value = self.value + other.value

        def backward(out):
            if self.needs_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.needs_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        return Tensor._make(out_value, (self, other), "add", backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._lift(other)
        out_value = self.value - other.value

        def backward(out):
            if self.needs_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.needs_grad:
                other._accumulate(_unbroadcast(-out.grad, other.shape))

        return Tensor._make(out_value, (self, other), "sub", backward)

    def __rsub__(self, other):
        return Tensor._lift(other) - self

    def __mul__(self, other):
        other = Tensor._lift(other)
        out_value = self.value * other.value

        def backward(out):
            if self.needs_grad:
                self._accumulate(_unbroadcast(out.grad * other.value, self.shape))
            if other.needs_grad:
                other._accumulate(_unbroadcast(out.grad * self.value, other.shape))

        return Tensor._make(out_value, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other)
        out_value = self.value / other.value

        def backward(out):
            if self.needs_grad:
                self._accumulate(_unbroadcast(out.grad / other.value, self.shape))
            if other.needs_grad:
                other._accumulate(
                    _unbroadcast(-out.grad * self.value / other.value**2, other.shape)
                )

        return Tensor._make(out_value, (self, other), "div", backward)

    def __rtruediv__(self, other):
        return Tensor._lift(other) / self

    def __neg__(self):
        def backward(out):
            self._accumulate(-out.grad)

        return Tensor._make(-self.value, (self,), "neg", backward)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only constant exponents are supported")
        out_value = self.value**exponent

        def backward(out):
            self._accumulate(out.grad * exponent * self.value ** (exponent - 1))

        return Tensor._make(out_value, (self,), "pow", backward)

    def __matmul__(self, other):
        other = Tensor._lift(other)
        out_value = self.value @ other.value

        def backward(out):
            if self.needs_grad:
                self._accumulate(out.grad @ other.value.T)
            if other.needs_grad:
                other._accumulate(self.value.T @ out.grad)

        return Tensor._make(out_value, (self, other), "matmul", backward)

    def __getitem__(self, key):
        out_value = self.value[key]

        def backward(out):
            g = np.zeros_like(self.value)
            g[key] = out.grad
            self._accumulate(g)

        return Tensor._make(out_value, (self,), "getitem", backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        out_value = self.value.reshape(shape)

        def backward(out):
            self._accumulate(out.grad.reshape(self.shape))

        return Tensor._make(out_value, (self,), "reshape", backward)

    def sum(self, axis=None):
        out_value = self.value.sum(axis=axis)

        def backward(out):
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_value, (self,), "sum", backward)

    # -- elementwise transcendentals -------------------------------------------

    def exp(self):
        out_value = np.exp(self.value)

        def backward(out):
            self._accumulate(out.grad * out_value)

        return Tensor._make(out_value, (self,), "exp", backward)

    def log(self):
        out_value = np.log(self.value)

        def backward(out):
            self._accumulate(out.grad / self.value)

        return Tensor._make(out_value, (self,), "log", backward)

    def sqrt(self):
        out_value = np.sqrt(self.value)

        def backward(out):
            self._accumulate(out.grad * 0.5 / out_value)

        return Tensor._make(out_value, (self,), "sqrt", backward)

    def tanh(self):
        out_value = np.tanh(self.value)

        def backward(out):
            self._accumulate(out.grad * (1.0 - out_value * out_value))

        return Tensor._make(out_value, (self,), "tanh", backward)

    def sin(self):
        out_value = np.sin(self.value)

        def backward(out):
            self._accumulate(out.grad * np.cos(self.value))

        return Tensor._make(out_value, (self,), "sin", backward)

    def cos(self):
        out_value = np.cos(self.value)

        def backward(out):
            self._accumulate(-out.grad * np.sin(self.value))

        return Tensor._make(out_value, (self,), "cos", backward)

    def softplus(self):
        out_value = np.logaddexp(0.0, self.value)

        def backward(out):
            # sigmoid via tanh keeps both saturation tails stable
            sig = 0.5 * (1.0 + np.tanh(0.5 * self.value))
            self._accumulate(out.grad * sig)

        return Tensor._make(out_value, (self,), "softplus", backward)

    # -- backward pass -----------------------------------------------------------

    def topo_order(self) -> list["Tensor"]:
        """Reverse-postorder DFS over grad-requiring ancestors (iterative)."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return order

    def backward(self) -> None:
        if self.value.size != 1:
            raise ValueError(f"backward requires a scalar output, got shape {self.shape}")
        order = self.topo_order()
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node)


def superpose(alpha: Tensor, tau: Tensor, pulse: AnalyticPulse, grid: TimeGrid) -> Tensor:
    """Differentiable sum of delayed scaled pulses; see signals.superpose_arrivals.

    Forward arithmetic is shared bit-for-bit with the plain synthesis kernel.
    The vjp in tau uses the analytic pulse derivative on the cached windows.
    """
    alpha = Tensor._lift(alpha)
    tau = Tensor._lift(tau)
    if not (np.all(np.isfinite(alpha.value)) and np.all(np.isfinite(tau.value))):
        raise NumericOverflowError("non-finite arrival parameters entering superpose")
    out_value, (pad, start, u, window) = superpose_arrivals(
        alpha.value, tau.value, pulse, grid, return_parts=True
    )
    squeeze = alpha.value.ndim == 1
    a2 = np.atleast_2d(alpha.value)
    n_batch, n_paths = a2.shape
    w_len = window.shape[-1]
    n = grid.n_samples

    def backward(out):
        gy = np.atleast_2d(out.grad)
        gpad = np.zeros((n_batch, n + 2 * pad))
        gpad[:, pad : pad + n] = gy
        g_alpha = np.empty_like(a2)
        g_tau = np.empty_like(a2)
        omega = 2.0 * np.pi * pulse.center_freq
        env = pulse.amplitude * np.exp(-(u * u) / (2.0 * pulse.sigma**2))
        dwindow = env * (
            -(u / pulse.sigma**2) * np.cos(omega * u) - omega * np.sin(omega * u)
        )
        for b in range(n_batch):
            for i in range(n_paths):
                s0 = start[b, i]
                gw = gpad[b, s0 : s0 + w_len]
                g_alpha[b, i] = gw @ window[b, i]
                g_tau[b, i] = -a2[b, i] * (gw @ dwindow[b, i])
        if squeeze:
            g_alpha = g_alpha[0]
            g_tau = g_tau[0]
        if alpha.needs_grad:
            alpha._accumulate(g_alpha)
        if tau.needs_grad:
            tau._accumulate(g_tau)

    return Tensor._make(out_value, (alpha, tau), "superpose", backward)


@dataclass(frozen=True)
class Layout:
    """Named contiguous segments of a flat parameter vector."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int(np.prod(s)) if s else 1 for s in self.shapes)

    @property
    def size(self) -> int:
        return sum(self.sizes)

    def slice_of(self, name: str) -> slice:
        start = 0
        for n, s in zip(self.names, self.sizes):
            if n == name:
                return slice(start, start + s)
            start += s
        raise KeyError(f"no segment named {name!r}")

    def shape_of(self, name: str) -> tuple[int, ...]:
        return self.shapes[self.names.index(name)]

    def pack(self, segments: dict[str, np.ndarray]) -> np.ndarray:
        flat = np.empty(self.size)
        for name, shape in zip(self.names, self.shapes):
            flat[self.slice_of(name)] = np.asarray(segments[name]).reshape(-1)
        return flat

    def unpack(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {
            name: flat[self.slice_of(name)].reshape(shape)
            for name, shape in zip(self.names, self.shapes)
        }

    def segment(self, t: Tensor, name: str) -> Tensor:
        return t[self.slice_of(name)].reshape(self.shape_of(name))


def _first_nonfinite_value(root: Tensor) -> Tensor | None:
    nodes = sorted(root.topo_order(), key=lambda t: t.node_id)
    for node in nodes:
        if not np.all(np.isfinite(node.value)):
            return node
    return None


def _first_nonfinite_grad(root: Tensor) -> Tensor | None:
    nodes = sorted(root.topo_order(), key=lambda t: t.node_id, reverse=True)
    for node in nodes:
        if node.grad is not None and not np.all(np.isfinite(node.grad)):
            return node
    return None


def value_and_grad(loss_fn, at: np.ndarray) -> tuple[float, np.ndarray]:
    """Evaluate a scalar program and its gradient at a flat parameter vector.

    Raises NumericOverflowError naming the earliest offending graph node if a
    non-finite value or gradient shows up anywhere on the tape.
    """
    x = Tensor(np.array(at, dtype=np.float64, copy=True), op="input", needs_grad=True)
    out = loss_fn(x)
    if not isinstance(out, Tensor):
        raise TypeError("loss_fn must return a Tensor")
    if not np.all(np.isfinite(out.value)):
        bad = _first_nonfinite_value(out)
        where = f"node #{bad.node_id} ({bad.op})" if bad is not None else "output"
        raise NumericOverflowError(f"non-finite value at {where} during forward pass")
    out.backward()
    g = x.grad if x.grad is not None else np.zeros_like(x.value)
    if not np.all(np.isfinite(g)):
        bad = _first_nonfinite_grad(out)
        where = f"node #{bad.node_id} ({bad.op})" if bad is not None else "input"
        raise NumericOverflowError(f"non-finite gradient at {where} during backward pass")
    return float(out.value), g


def grad(loss_fn, at: np.ndarray) -> np.ndarray:
    """Gradient of a scalar program at a flat parameter vector."""
    return value_and_grad(loss_fn, at)[1]


@dataclass
class GradReport:
    """Outcome of a finite-difference gradient audit."""

    analytic: np.ndarray
    fd: np.ndarray  # NaN at coordinates that were not checked
    checked: np.ndarray
    max_rel_error: float

    def ok(self, tol: float = 1e-5) -> bool:
        return self.max_rel_error <= tol


def fd_check(
    loss_fn,
    at: np.ndarray,
    h: float = 1e-5,
    n_coords: int | None = 50,
    seed: int = 0,
) -> GradReport:
    """Compare the reverse-mode gradient against central finite differences.

    Per-coordinate step h_j = h * max(1, |x_j|); relative error uses
    |a - b| / max(|a|, |b|, 1e-12). With n_coords set, only a random coordinate
    subset is probed (2 evaluations per coordinate).
    """
    at = np.asarray(at, dtype=np.float64)
    analytic = grad(loss_fn, at)
    size = at.size
    if n_coords is None or n_coords >= size:
        checked = np.arange(size)
    else:
        rng = np.random.default_rng(seed)
        checked = np.sort(rng.choice(size, size=n_coords, replace=False))
    fd = np.full(size, np.nan)

    def eval_at(x):
        out = loss_fn(Tensor(x, op="input", needs_grad=False))
        return float(out.value) if isinstance(out, Tensor) else float(out)

    for j in checked:
        hj = h * max(1.0, abs(at[j]))
        xp = at.copy()
        xm = at.copy()
        xp[j] += hj
        xm[j] -= hj
        fd[j] = (eval_at(xp) - eval_at(xm)) / (2.0 * hj)
    a = analytic[checked]
    b = fd[checked]
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    max_rel = float(np.max(np.abs(a - b) / denom)) if len(checked) else 0.0
    return GradReport(analytic, fd, checked, max_rel)

