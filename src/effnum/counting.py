"""Counting kernels, weight vectors and effective number functions.

An effective number function assigns a consistent "effective count" to a
collection of N objects carrying counting weights w_i = N * p_i.  It is a
separable sum sum_i c(w_i) over a per-weight kernel c with c(0) = 0 and
c(1) = 1.  Two kernel families are built in:

* ``minimal``:   c(w) = min{w, 1} -- the smallest consistent count.
* ``canonical``: c(w) = min{w**alpha, 1} for 0 < alpha <= 1; alpha = 1
  coincides with the minimal kernel.

User-supplied kernels are accepted and can be screened against the
necessary conditions with :func:`validate_counting_function`.

Every reported number is exactly summed: each effective count here, and
each kernel integral and Riemann sum of :mod:`effnum.continuum`, is one
:func:`exact_total`, the correctly rounded sum of :func:`exact_sums` --
the same bits as ``math.fsum`` -- at numpy speed, so it is invariant under
permutation of the weights or cells bit-for-bit.  A kernel is applied
inside that reduction, one block at a time.  Checks of a sum against a
tolerance use numpy's pairwise ``sum`` instead (see :class:`ProbabilityVector`).
"""

from __future__ import annotations

import math
import weakref
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInput

PROB_SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12  # scaled by n at the point of use
# Inputs of at most this many entries are summed by math.fsum: on one
# segment it is faster than exact_sums' numpy passes up to about 700
# entries (about 25 us either way there).
EXACT_SUM_CUTOFF = 512
# Entries handled at once by exact_total's reduction and the sampler of
# effnum.simulate, so that their memory follows one block, not n or the
# trial count: 2**16 doubles are 512 kB, which stays in a core's L2 cache,
# while each block's few numpy calls are amortized over 65,536 entries.
BLOCK = 2**16


class Frozen:
    """Base of the library's value classes.  ``__init__`` validates its
    arguments and saves them with ``_store``, which keeps every array, alone
    or in a tuple, as a read-only copy of its own; pickle and copy restore
    through it too.  An array that a library builder made for the object
    (``_fresh``) is kept itself instead of a copy.  Assigning or deleting an
    attribute raises AttributeError.  Equality is identity."""

    def _store(self, **fields):
        vars(self).update({name: Frozen._private(value) for name, value in fields.items()})

    @staticmethod
    def _private(value):
        """A read-only C-order copy of an array, also inside a tuple; a
        ``_fresh`` array is made read-only in place, once."""
        if isinstance(value, np.ndarray):
            if _FRESH.pop(id(value), None) is not value:
                value = np.array(value, order="C")
            value.flags.writeable = False
        elif type(value) is tuple:
            value = tuple(map(Frozen._private, value))
        return value

    def __setstate__(self, state):
        self._store(**state)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


# Arrays handed to ``_store`` by ``_fresh``, by id.  Weak, so that an entry
# goes with its array and a later array at the same address is never taken
# for it.
_FRESH = weakref.WeakValueDictionary()


def _fresh(arr: np.ndarray) -> np.ndarray:
    """Hand ``arr``, a C-order array that the caller has just built and keeps
    no other reference to, to the value object constructed from it next:
    that object's ``_store`` keeps ``arr`` itself, after every check of its
    constructor, instead of a copy.  Only the library's own builders call
    this; any other array is still copied."""
    _FRESH[id(arr)] = arr
    return arr


def _owned(arr: np.ndarray) -> np.ndarray:
    """``arr`` if ``_fresh`` handed it over, a C-order copy otherwise: an
    array that the caller may change in place, handed on by ``_fresh``, so
    that a value object built from it next keeps it."""
    return _fresh(arr if _FRESH.get(id(arr)) is arr else np.array(arr, order="C"))


def as_dim(value, name: str) -> int:
    """``value`` as an int, if it is a Python or numpy integer; anything
    else, a bool, a float or a string, raises InvalidInput."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    return int(value)


def _fsums(x: np.ndarray, seg: np.ndarray | None, m: int) -> np.ndarray:
    """math.fsum over each segment of x."""
    if seg is None:
        return np.array([math.fsum(x.tolist())])
    parts = [[] for _ in range(m)]
    for value, j in zip(x.tolist(), seg.tolist()):
        parts[j].append(value)
    return np.array([math.fsum(part) for part in parts])


def exact_sums(x, seg=None, m: int = 1) -> np.ndarray:
    """Correctly rounded sum of each segment of x, bit-identical to math.fsum.

    ``seg`` gives each entry's segment in [0, m) (default, and always if
    m = 1: all in segment 0); the result has m entries, and an empty
    segment sums to 0.0.  An x that ``_fresh`` handed over is used up: the
    passes work in it instead of in a copy.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 2008):
    with e the exponent of max|x| (|x| < 2**e) and sigma =
    2**(ceil(log2(n + 2)) + e), q = (sigma + x) - sigma rounds every entry
    to a multiple of 2**-53 * sigma, and any partial sum of the q stays
    below sigma, so numpy adds them without error; x - q is exact too.
    Passes repeat on the remainders, each gaining at least 52 - log2(n + 2)
    bits, and one ``math.fsum`` over each segment's few exact pass totals
    rounds once.  Short and non-finite inputs, and inputs whose sigma would
    overflow, take ``math.fsum`` directly.
    """
    x = _owned(np.asarray(x, dtype=float)).ravel()
    seg = None if seg is None or m == 1 else np.asarray(seg, dtype=np.intp)
    totals = _pass_totals(x, seg, m)
    if totals is None:
        return _fsums(x, seg, m)
    if seg is None:
        return np.array([math.fsum(totals)])
    # Adding one or two doubles rounds once, as fsum does; three or more
    # non-zero totals need fsum's exact accumulation.
    many = np.zeros(m, np.uint8)
    for part in totals:
        many += part != 0.0
    fix = np.flatnonzero(many > 2)
    exact = [math.fsum(column) for column in np.stack([part[fix] for part in totals], 1).tolist()]
    sums = totals[0]
    for part in totals[1:]:
        sums += part
    sums[fix] = exact
    return sums


def _pass_totals(x: np.ndarray, seg: np.ndarray | None, m: int) -> list | None:
    """The exact totals of :func:`exact_sums`' error-free passes over the
    float vector x, which they use up: one float per pass, or with ``seg``
    one array of m segment totals per pass.  The passes work in x while most
    remainders are non-zero, and on a compressed copy of the rest after.
    None where ``math.fsum`` must take x itself: short or non-finite x, or
    one whose sigma would overflow; x is then as it was."""
    if x.size <= EXACT_SUM_CUTOFF:
        return None
    hi, lo = float(x.max()), float(x.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        return None
    top = math.frexp(max(hi, -lo))[1]
    if (x.size + 1).bit_length() + top > 1023:  # sigma would overflow
        return None
    totals = []
    while True:
        sigma = math.ldexp(1.0, (x.size + 1).bit_length() + top)
        q = x + sigma
        q -= sigma
        x -= q  # a remainder of 0 stays 0 and adds 0 to its segment
        totals.append(float(q.sum()) if seg is None else np.bincount(seg, weights=q, minlength=m))
        del q  # before the remainders are compressed
        left = np.count_nonzero(x)
        if not left:
            return totals
        if 2 * left <= x.size:
            keep = x != 0.0
            x = x[keep]
            if seg is not None:
                seg = seg[keep]
        top = math.frexp(max(float(x.max()), -float(x.min())))[1]


def _nonnegative_vector(values, name: str, entries: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInput(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    if np.any(arr < 0.0):
        raise InvalidInput(f"{entries} must be non-negative")
    return arr


class ProbabilityVector(Frozen):
    """Non-negative probabilities over n objects, summing to one.

    The sum is checked with numpy's ``sum``, which adds blocks of 128
    entries in 8 lanes and the block sums pairwise, so its error is below
    (16 + log2 n) * 2**-53 * sum(p): under 1e-14 at any feasible n, far
    inside ``PROB_SUM_TOL``.
    """

    def __init__(self, p):
        arr = _nonnegative_vector(p, "probability vector", "probabilities")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvalidInput(
                f"probabilities must sum to 1 within {PROB_SUM_TOL:g}; got {total!r}"
            )
        self._store(p=arr, n=int(arr.size))


class WeightVector(Frozen):
    """Non-negative counting weights summing to their number n.

    The sum is checked with numpy's ``sum``, whose error (below
    (16 + log2 n) * 2**-53 * n, see :class:`ProbabilityVector`) is far
    inside ``WEIGHT_SUM_TOL * n``.
    """

    def __init__(self, w):
        arr = _nonnegative_vector(w, "weight vector", "counting weights")
        n = int(arr.size)
        total = float(arr.sum())
        if abs(total - n) > WEIGHT_SUM_TOL * n:
            raise InvalidInput(
                f"counting weights must sum to n={n} within {WEIGHT_SUM_TOL * n:g}; "
                f"got {total!r}"
            )
        self._store(w=arr, n=n)


def _minimal_eval(w: np.ndarray) -> np.ndarray:
    return np.minimum(w, 1.0)


def _canonical_eval(w: np.ndarray, alpha: float) -> np.ndarray:
    return np.minimum(np.power(w, alpha), 1.0)


class CountingFunction(Frozen):
    """Per-weight kernel c(w) of an effective number function.

    ``kind`` is one of ``"minimal"``, ``"canonical"`` or ``"user"``; the
    canonical family carries its exponent in ``alpha``.
    """

    def __init__(self, kind: str, func: Callable[[np.ndarray], np.ndarray],
                 alpha: float | None = None):
        self._store(kind=kind, func=func, alpha=alpha)

    @classmethod
    def minimal(cls) -> "CountingFunction":
        """Kernel min{w, 1}: the smallest consistent count."""
        return cls(kind="minimal", func=_minimal_eval)

    @classmethod
    def canonical(cls, alpha: float) -> "CountingFunction":
        """Kernel min{w**alpha, 1} with 0 < alpha <= 1.

        alpha = 1 returns the minimal kernel's evaluator so the two agree
        bit-for-bit.
        """
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise InvalidInput(f"canonical exponent must lie in (0, 1], got {alpha}")
        if alpha == 1.0:
            return cls(kind="canonical", func=_minimal_eval, alpha=1.0)
        return cls(kind="canonical", func=partial(_canonical_eval, alpha=alpha), alpha=alpha)

    @classmethod
    def from_callable(cls, func: Callable[[np.ndarray], np.ndarray]) -> "CountingFunction":
        """Wrap a user-supplied vectorized kernel; see validate_counting_function.

        The kernel must be elementwise: an effective count applies it to
        blocks of at most ``BLOCK`` (2**16) weights at a time, never to all
        n at once."""
        return cls(kind="user", func=func)

    def __call__(self, w) -> np.ndarray:
        return np.asarray(self.func(np.asarray(w, dtype=float)), dtype=float)

    @property
    def label(self) -> str:
        if self.kind == "canonical":
            return f"canonical(alpha={self.alpha:g})"
        return self.kind


def weights_from_probs(p: ProbabilityVector) -> WeightVector:
    """Rescale probabilities to counting weights w_i = n * p_i."""
    return WeightVector(_fresh(p.n * p.p))


def effnum(w: WeightVector, c: CountingFunction) -> float:
    """Effective count sum_i c(w_i); lies in [1, n] for valid kernels."""
    return exact_total(c, w.w)


def exact_total(f: Callable[..., np.ndarray], x, *more) -> float:
    """The correctly rounded sum of ``f(x, *more)`` (:func:`exact_sums`) as a
    float: the one reduction of every effective count and every Riemann sum.

    ``f`` is elementwise, and ``more`` holds arrays aligned with x, of its
    size.  ``f`` is applied to ``BLOCK`` entries at a time, the same entries
    of each array, whatever x's size, and each block leaves only the exact
    totals of its passes (its values, if ``math.fsum`` must take them), so
    memory follows a block, not x.  One :func:`exact_sums` over all of them
    rounds once; a correctly rounded sum is unique, so the blocks change no
    bit, and an empty x sums to 0.0.  A sum that overflows, as ``math.fsum``
    can even where the exact sum is finite, and a sum of both infinities
    raise InvalidInput."""
    arrays = [np.asarray(a).reshape(-1) for a in (x, *more)]
    parts = [np.zeros(0)]
    with _summing:
        for start in range(0, arrays[0].size, BLOCK):
            values = np.asarray(f(*(a[start:start + BLOCK] for a in arrays)), dtype=float).ravel()
            passes = _pass_totals(_owned(values), None, 1)
            parts.append(values if passes is None else np.array(passes))
        return exact_sums(np.concatenate(parts)).item()


class _Summing:
    """``with _summing:`` raises the errors of a kernel and an exact sum over
    its values as InvalidInput: a sum that overflows and a sum of both
    infinities.  A class rather than a ``contextmanager``, whose
    ``__wrapped__`` the benchmark's tracer check would take for its own."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, OverflowError):
            raise InvalidInput(f"sum overflows: {exc}") from exc
        if isinstance(exc, ValueError):  # math.fsum's "-inf + inf"
            raise InvalidInput(f"sum is undefined: {exc}") from exc
        return False


_summing = _Summing()


def effnum_min(w: WeightVector) -> float:
    """Smallest consistent effective count sum_i min{w_i, 1}."""
    return effnum(w, CountingFunction.minimal())


def concat(w1: WeightVector, w2: WeightVector) -> WeightVector:
    """Join the weight tuples of two disjoint collections."""
    return WeightVector(np.concatenate([w1.w, w2.w]))


def product(p: ProbabilityVector, q: ProbabilityVector) -> ProbabilityVector:
    """Product distribution with entries p_i * q_j in row-major order."""
    return ProbabilityVector(np.outer(p.p, q.p).ravel())


def tail_fit(xs, ys) -> tuple[float, float, float, int]:
    """Least-squares line through the last points of a scan of k >= 3.

    The fit window, the larger of 3 and k/2 rounded up, drops the early,
    transient points.  Returns (intercept, slope, residual, window), the
    residual being the largest misfit |fit - y| inside the window.

    The fit runs on x scaled by the power of two 2**-e that brings max |x|
    into [0.5, 1), so that ``(x - xbar) ** 2`` neither underflows nor
    overflows.  Scaling by a power of two is exact, so wherever the
    unscaled fit stays in range the results are bit for bit the same.
    """
    window = max(3, math.ceil(len(xs) / 2))
    x = np.asarray(xs[-window:], dtype=float)
    e = math.frexp(float(np.max(np.abs(x))))[1]
    x = np.ldexp(x, -e)
    y = np.asarray(ys[-window:], dtype=float)
    xbar, ybar = x.mean(), y.mean()
    slope = float(np.sum((x - xbar) * (y - ybar)) / np.sum((x - xbar) ** 2))
    intercept = float(ybar - slope * xbar)
    residual = float(np.max(np.abs(intercept + slope * x - y)))
    return intercept, math.ldexp(slope, -e), residual, window


class ConditionCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class CountingFunctionReport(NamedTuple):
    """Pass/fail record of the necessary-condition screen of a kernel."""

    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:<22} {status}  {c.detail}")
        return "\n".join(lines)


def validate_counting_function(c: CountingFunction) -> CountingFunctionReport:
    """Screen a kernel against the necessary conditions, by sampling.

    Checked on 10,001 evenly spaced points of [0, 64]: c(0) = 0, c(1) = 1,
    boundedness 0 <= c <= 1, pointwise domination of the minimal kernel,
    and a sampled continuity heuristic.  The continuity bound is
    scale-relative: adjacent sampled increments must satisfy
    ``|dc| <= 10 * dx / max(x, dx)``.  An absolute bound cannot work near
    w = 0, where valid kernels may rise arbitrarily steeply.  This is a
    screen for necessary conditions only; passing it does not certify a
    kernel as a consistent counting rule.
    """
    grid = np.linspace(0.0, 64.0, 10_001)
    values = c(grid)

    tol = 1e-12
    c0 = float(c(np.array([0.0]))[0])
    c1 = float(c(np.array([1.0]))[0])
    checks = [
        ConditionCheck("zero_at_origin", abs(c0) <= tol, f"c(0) = {c0:.3e}"),
        ConditionCheck("one_at_unit", abs(c1 - 1.0) <= tol, f"c(1) = {c1!r}"),
    ]

    low = float(np.min(values))
    high = float(np.max(values))
    checks.append(
        ConditionCheck(
            "bounded",
            low >= -tol and high <= 1.0 + tol,
            f"range [{low:.6g}, {high:.6g}] on sampled grid",
        )
    )

    deficit = float(np.min(values - np.minimum(grid, 1.0)))
    checks.append(
        ConditionCheck(
            "dominates_minimal",
            deficit >= -tol,
            f"min(c(w) - min{{w,1}}) = {deficit:.3e}",
        )
    )

    dx = np.diff(grid)
    dc = np.abs(np.diff(values))
    thresholds = 10.0 * dx / np.maximum(grid[:-1], dx)
    worst = float(np.max(dc / thresholds))
    checks.append(
        ConditionCheck(
            "sampled_continuity",
            worst <= 1.0,
            f"max increment at {worst:.3g} of the heuristic bound",
        )
    )

    return CountingFunctionReport(checks=tuple(checks))
