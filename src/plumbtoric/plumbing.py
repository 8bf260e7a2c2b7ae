"""Linear plumbing chains of disk bundles over spheres.

A chain is the ordered tuple of self-intersection numbers (s_1, ..., s_n);
all plumbing edges are taken positive.  Indices in error messages and in
the Neumann-move interface are 1-based, matching the usual notation.

The leading principal minors of Q follow one recurrence, ``_minors`` (the
``toric`` walk steps it on its state), and Jacobi's rule, ``_inertia``,
reads the inertia off them; ``blow_down`` is one pass with a stack and a carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from .errors import EmptyPlumbing, MovePreconditionFailed, TooShort

Chain = tuple


def as_chain(s: Sequence[int]) -> Chain:
    t = tuple(s)
    if not t:
        raise TooShort("empty plumbing chain")
    if not all(type(v) is int for v in t):
        raise TypeError("self-intersection numbers must be integers")
    return t


def intersection_matrix(s: Sequence[int]):
    """Tridiagonal matrix with diagonal s_i and off-diagonal ones."""
    s = as_chain(s)
    n = len(s)
    q = [[0] * n for _ in range(n)]
    for i, v in enumerate(s):
        q[i][i] = v
        if i + 1 < n:
            q[i][i + 1] = 1
            q[i + 1][i] = 1
    return q


def det_intersection(s: Sequence[int]) -> int:
    """det Q via the tridiagonal recurrence d_k = s_k d_{k-1} - d_{k-2}."""
    *_, det = _minors(as_chain(s))
    return det


def _minors(s: Chain):
    """The leading principal minors d_1, ..., d_n of Q, in order."""
    prev2, prev1 = 0, 1
    for v in s:
        prev2, prev1 = prev1, v * prev1 - prev2
        yield prev1


def _inertia(s: Chain):
    """(b+(Q), d_{n-1}, d_n) from one pass over the leading minors, d_0 = 1.

    Jacobi's rule: each d_j of the sign of d_{j-1} is a positive
    eigenvalue; an interior zero forces d_{j+1} = -d_{j-1}, so it counts
    once; a final zero is the kernel.  Q is tridiagonal with nonzero
    off-diagonal entries, so its kernel has dimension at most 1, and is
    nonzero exactly when d_n = 0.
    """
    prev, last, b_plus = 0, 1, 0  # d_{j-1}, d_j and the count so far
    for d in _minors(s):
        prev, last = last, d
        b_plus += prev * last > 0 or prev == 0
    return b_plus, prev, last


def is_negative_definite(s: Sequence[int]) -> bool:
    """No positive eigenvalue and no kernel: b+(Q) = 0 and det Q != 0."""
    b_plus, _, det = _inertia(as_chain(s))
    return b_plus == 0 and det != 0


def blow_down(s: Sequence[int]) -> Chain:
    """Remove -1 vertices, leftmost first, incrementing their neighbors.

    Cascades until no -1 remains.  For linear chains the result does not
    depend on the removal order (tested against rightmost-first).
    """
    out, carry = [], 0
    for v in as_chain(s):
        v, carry = v + carry, 0
        while v == -1:  # remove it, owing one to the next vertex
            carry += 1
            if not out:
                break
            v = out.pop() + 1  # its left neighbor, raised, may be a -1 too
        else:
            out.append(v)
    if not out:
        raise EmptyPlumbing("blowing down (-1) leaves an empty plumbing")
    return tuple(out)


class NeumannMove(Enum):
    R1_END = "r1-end"  # absorb a +1 end vertex
    R1_MID = "r1-mid"  # absorb a +1 valency-2 vertex
    R3 = "r3"          # absorb a 0 vertex with two interior neighbors


def neumann_move(s: Sequence[int], move: NeumannMove, site: int) -> Chain:
    """Apply a Neumann move at the 1-based position ``site``.

    R1_END: (s_1, ..., s_{n-1}, 1) -> (s_1, ..., s_{n-1} - 1), and the
    mirror image at site 1.  R1_MID: (..., a, 1, b, ...) -> (..., a-1,
    b-1, ...).  R3: (..., a, 0, b, ...) with both neighbors interior ->
    (..., a+b, ...).  These change the contact structure (except blow-downs)
    but not the underlying lens space.
    """
    chain = list(as_chain(s))
    n = len(chain)
    if not 1 <= site <= n:
        raise MovePreconditionFailed("site %d out of range 1..%d" % (site, n))
    j = site - 1
    if move is NeumannMove.R1_END:
        if n < 2 or site not in (1, n) or chain[j] != 1:
            raise MovePreconditionFailed("R1_END needs a +1 entry at an end")
        if site == n:
            return tuple(chain[: n - 2] + [chain[n - 2] - 1])
        return tuple([chain[1] - 1] + chain[2:])
    if move is NeumannMove.R1_MID:
        if not 1 < site < n or chain[j] != 1:
            raise MovePreconditionFailed("R1_MID needs an interior +1 entry")
        return tuple(chain[: j - 1] + [chain[j - 1] - 1, chain[j + 1] - 1] + chain[j + 2:])
    if move is NeumannMove.R3:
        if not 2 < site < n - 1 or chain[j] != 0:
            raise MovePreconditionFailed(
                "R3 needs a 0 entry with two interior neighbors"
            )
        return tuple(chain[: j - 1] + [chain[j - 1] + chain[j + 1]] + chain[j + 2:])
    raise MovePreconditionFailed("unknown move %r" % (move,))


def area_vector(s: Chain, z: Sequence) -> list:
    """a = -Q z over z padded with a 0 at each end; checks only the lengths."""
    if len(z) != len(s):
        raise ValueError("heights length %d != chain length %d" % (len(z), len(s)))
    p, out = (0, *z, 0), []
    for j, sj in enumerate(s):
        out.append(-sj * p[j + 1] - p[j] - p[j + 2])
    return out


@dataclass(frozen=True)
class GSViolation:
    """Failed negative-GS witness check: 1-based index and failing side."""

    index: int
    side: str  # "height" (z_j not < 0) or "area" (a_j not > 0)
    value: Union[int, Fraction]


def negative_gs_check(s: Sequence[int], z: Sequence):
    """Verify the concavity witness: z < 0 componentwise and a = -Q z > 0.

    Returns the area vector a on success, otherwise a :class:`GSViolation`
    naming the first failing component.  This checks a supplied witness;
    ``toric.choose_heights`` constructs one in the concave case.
    """
    areas = area_vector(as_chain(s), z)
    for i, zi in enumerate(z):
        if not zi < 0:
            return GSViolation(index=i + 1, side="height", value=zi)
    for i, a in enumerate(areas):
        if not a > 0:
            return GSViolation(index=i + 1, side="area", value=a)
    return tuple(areas)
