"""Exact integer and rational primitives for planar lattice geometry.

Vectors are plain ``(x, y)`` tuples of integers (or exact rationals where
noted).  Ray directions are identified up to positive scaling; ``primitive``
gives the canonical representative.  Matrices act on column vectors, the
convention used project-wide.

Swept angles are never computed with trigonometry.  A sequence of rays is
compared against the half turn and the full turn with integer cross/dot
signs only: one count of how often the rotating direction wraps past the
start direction, plus where the last ray lies relative to that direction
and its antipode, with no float: ``docio`` computes the display angle.

The position of a ray and the wrap of a step are defined once, in
``_step``: a ray's position depends only on the start ray and a step's wrap
only on its two rays.  ``winding_compare`` walks one ray sequence with it,
and ``toric``'s walk walks every pivot's sequence of a chain at once.
``continued_fraction`` reads its continuants off ``plumbing._minors``.
"""

from __future__ import annotations

import functools
from enum import Enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import ParallelSameDirection, TooShort, ZeroVector
from .plumbing import _minors

Vec2 = tuple  # (x, y) with integer (or Fraction) entries


def cross(u, v):
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def primitive(v) -> Vec2:
    """The primitive integer vector in the direction of v; rejects (0,0)."""
    x, y = v
    g = gcd(abs(x), abs(y))
    if g == 0:
        raise ZeroVector("(0, 0) has no direction")
    return (x // g, y // g)


def scale_to_ints(values) -> Tuple[int, List[int]]:
    """Scale exact rationals (ints or Fractions) to ints over one common
    denominator: returns (D, [D * x for x in values]), where D is the lcm of
    their denominators (1 for no values)."""
    scale = lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def primitive_of_rational(v) -> Vec2:
    """Primitive integer vector in the direction of a rational vector."""
    return primitive(scale_to_ints((Fraction(v[0]), Fraction(v[1])))[1])


class MatSL2Z(NamedTuple):
    """Integer 2x2 matrix [[a, b], [c, d]] with determinant +1."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c


SL2Z_IDENTITY = MatSL2Z(1, 0, 0, 1)


def sl2z(a: int, b: int, c: int, d: int) -> MatSL2Z:
    m = MatSL2Z(a, b, c, d)
    if m.det() != 1:
        raise ValueError("determinant %d != +1" % m.det())
    return m


def sl2z_mul(m: MatSL2Z, n: MatSL2Z) -> MatSL2Z:
    return MatSL2Z(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def sl2z_apply(m: MatSL2Z, v) -> Vec2:
    """M.v with the column-vector convention."""
    return (m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1])


def continued_fraction(entries: Sequence[int]) -> Optional[Fraction]:
    """Value of the minus continued fraction s1 - 1/(s2 - 1/(... - 1/sn)).

    That is K(s_1..s_n) / K(s_2..s_n), the last two ``plumbing._minors`` of
    the reversed entries.  Returns ``None`` when a tail K(s_j..s_n), j > 1, is
    zero, making a division undefined; that is a legitimate value of the
    expression, not a failure.  ``classify`` compares the ints themselves.
    """
    if not entries:
        raise TooShort("continued fraction of an empty sequence")
    minors = [1, *_minors(entries[::-1])]
    if 0 in minors[1:-1]:
        return None
    return Fraction(minors[-1], minors[-2])


class StepClass(Enum):
    CONVEX = "convex"      # CCW turn in (0, pi)
    STRAIGHT = "straight"  # exactly pi (antiparallel rays)
    REFLEX = "reflex"      # CCW turn in (pi, 2 pi)


def step_class(u, v) -> StepClass:
    """Classify the CCW turn from ray u to ray v by v's position from u.

    Positively parallel rays are rejected: no consecutive pair of
    L-shape rays produces them (only the excluded pair (-1,-1) would).
    """
    if u[0] == 0 and u[1] == 0:
        raise ZeroVector("rays must be nonzero")
    pos = _step(u[0], u[1], u, 0, v)[0]
    return (None, StepClass.CONVEX, StepClass.STRAIGHT, StepClass.REFLEX)[pos]


class Cmp(Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"


class Landing(Enum):
    START = "start"
    ANTIPODE = "antipode"


@dataclass(frozen=True)
class WindingVerdict:
    """Exact comparison of a swept angle with pi and 2 pi.

    Of the c multiples of pi that the swept angle strictly exceeds, the odd
    ones are passes of -w0 and the even ones passes of the start direction
    w0 (an exact landing followed by further rotation counts as passed):
    ``crossings_of_antipode`` = (c + 1) // 2 and ``crossings_of_start`` =
    c // 2.  ``final_landing`` records an exact landing at the last ray.
    """

    vs_pi: Cmp
    vs_two_pi: Cmp
    crossings_of_start: int
    crossings_of_antipode: int
    final_landing: Optional[Landing]


def _step(w0x, w0y, u, pu: int, v):
    """The position of ray v and whether the CCW step from ray u (at
    position pu) to v wraps past the start ray w0 = (w0x, w0y).

    Positions are measured counter-clockwise from w0: 0 on w0, 1 where
    cross(w0, v) > 0, 2 on -w0 and 3 where cross(w0, v) < 0.  The step
    wraps when the position drops, or stays in one open half-plane while
    cross(u, v) < 0 (a turn of more than pi).
    """
    vx, vy = v[0], v[1]
    if vx == 0 and vy == 0:
        raise ZeroVector("rays must be nonzero")
    c = u[0] * vy - u[1] * vx
    if c == 0 and u[0] * vx + u[1] * vy > 0:
        raise ParallelSameDirection(
            "rays %s and %s point the same way" % ((u[0], u[1]), (vx, vy))
        )
    side = w0x * vy - w0y * vx
    pv = 1 if side > 0 else 3 if side < 0 else 0 if w0x * vx + w0y * vy > 0 else 2
    return pv, pv < pu or (pv == pu and c < 0)


@functools.lru_cache(maxsize=128)
def winding_verdict(passed: int, last: int) -> WindingVerdict:
    """The verdict of a sequence that strictly passes ``passed`` multiples of
    pi and whose last ray has the ``_step`` position ``last``.

    Verdicts are immutable, so each argument pair gets one shared instance,
    kept in a cache of at most 128 pairs (every chain of length up to 32
    fits): callers compare verdicts by value, never by identity."""
    landing = (Landing.START, None, Landing.ANTIPODE, None)[last]
    vs_pi = Cmp.GT if passed >= 1 else Cmp.EQ if last == 2 else Cmp.LT
    vs_two_pi = Cmp.GT if passed >= 2 else Cmp.EQ if passed == 1 and last == 0 else Cmp.LT
    return WindingVerdict(vs_pi, vs_two_pi, passed // 2, (passed + 1) // 2, landing)


def winding_compare(rays: Sequence[Vec2]) -> WindingVerdict:
    """Compare the total CCW angle swept by consecutive rays with pi and 2 pi.

    Each step turns counter-clockwise by its angle in (0, 2 pi).  Positions
    and wraps are those of ``_step``, measured from w0 = rays[0].  After W
    wraps past w0 the swept angle is 2 pi W plus the angle of the last
    ray, so it strictly passes c = 2 W + [pos 3] - [pos 0] multiples of pi.
    """
    if len(rays) < 2:
        raise TooShort("need at least two rays")
    w0x, w0y = rays[0][0], rays[0][1]
    if w0x == 0 and w0y == 0:
        raise ZeroVector("rays must be nonzero")
    wraps, p = 0, 0
    for u, v in zip(rays, rays[1:]):
        p, wrap = _step(w0x, w0y, u, p, v)
        wraps += wrap
    return winding_verdict(2 * wraps + (p == 3) - (p == 0), p)
