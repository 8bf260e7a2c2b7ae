"""Exact integer and rational primitives for planar lattice geometry.

Vectors are plain ``(x, y)`` tuples of integers (or exact rationals where
noted).  Ray directions are identified up to positive scaling; ``primitive``
gives the canonical representative.  Matrices act on column vectors, the
convention used project-wide.

Swept angles are never computed with trigonometry.  A sequence of rays is
compared against the half turn and the full turn by counting, with integer
cross/dot signs only, how often the rotating direction crosses the start
direction and its antipode.  Floats appear only in display fields.
"""

from __future__ import annotations

import math
from enum import Enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import (
    InternalInvariantError,
    ParallelSameDirection,
    TooShort,
    ZeroVector,
)

Vec2 = tuple  # (x, y) with integer (or Fraction) entries


def cross(u, v):
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def neg(v) -> Vec2:
    return (-v[0], -v[1])


def primitive(v) -> Vec2:
    """The primitive integer vector in the direction of v; rejects (0,0)."""
    x, y = v
    g = gcd(abs(x), abs(y))
    if g == 0:
        raise ZeroVector("(0, 0) has no direction")
    return (x // g, y // g)


def primitive_of_rational(v) -> Vec2:
    """Primitive integer vector in the direction of a rational vector."""
    fx, fy = Fraction(v[0]), Fraction(v[1])
    d = fx.denominator * fy.denominator  # any common denominator will do
    return primitive((int(fx * d), int(fy * d)))


def is_primitive(v) -> bool:
    return gcd(abs(v[0]), abs(v[1])) == 1


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

    Evaluated right to left over exact rationals.  Returns ``None`` when an
    intermediate tail evaluates to zero, making the next division undefined;
    that is a legitimate value of the expression, not a failure.
    """
    if not entries:
        raise TooShort("continued fraction of an empty sequence")
    num, den = entries[-1], 1
    for s in reversed(entries[:-1]):
        if num == 0:
            return None
        num, den = s * num - den, num
    return Fraction(num, den)


class StepClass(Enum):
    CONVEX = "convex"      # CCW turn in (0, pi)
    STRAIGHT = "straight"  # exactly pi (antiparallel rays)
    REFLEX = "reflex"      # CCW turn in (pi, 2 pi)


def step_class(u, v) -> StepClass:
    """Classify the CCW turn from ray u to ray v.

    Positively parallel rays are rejected: no consecutive pair of
    L-shape rays produces them (only the excluded pair (-1,-1) would).
    """
    if (u[0], u[1]) == (0, 0) or (v[0], v[1]) == (0, 0):
        raise ZeroVector("rays must be nonzero")
    c = cross(u, v)
    if c > 0:
        return StepClass.CONVEX
    if c < 0:
        return StepClass.REFLEX
    if dot(u, v) < 0:
        return StepClass.STRAIGHT
    raise ParallelSameDirection("rays %s and %s point the same way" % (u, v))


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

    ``crossings_of_start`` / ``crossings_of_antipode`` count how often the
    rotating direction strictly passed the start direction w0 resp. -w0
    (an exact landing followed by further rotation counts as passed).
    ``final_landing`` records an exact landing at the last ray.
    ``approx_degrees`` is display-only.
    """

    vs_pi: Cmp
    vs_two_pi: Cmp
    crossings_of_start: int
    crossings_of_antipode: int
    final_landing: Optional[Landing]
    approx_degrees: float


def winding_compare(rays: Sequence[Vec2]) -> WindingVerdict:
    """Compare the total CCW angle swept by consecutive rays with pi and 2 pi.

    Each step contributes its angle in (0, 2 pi): convex steps sweep the open
    sector between the two rays, a straight step sweeps the open half-plane
    cross(u, .) > 0, and a reflex step sweeps the complement of the closed
    non-reflex sector.  The start direction w0 and its antipode are markers at
    the multiples of pi; counting their strict crossings (plus the landings
    at non-final step ends, which further rotation turns into crossings)
    decides both comparisons exactly.
    """
    if len(rays) < 2:
        raise TooShort("need at least two rays")
    w0x, w0y = rays[0][0], rays[0][1]
    if w0x == 0 and w0y == 0:
        raise ZeroVector("rays must be nonzero")
    crossings = [0, 0]  # [start, antipode]
    final_landing = None
    approx = 0.0
    last = len(rays) - 1
    atan2 = math.atan2
    two_pi = 2 * math.pi
    ux, uy = w0x, w0y
    # cross/dot signs are computed inline: this loop dominates the survey
    for idx in range(1, len(rays)):
        v = rays[idx]
        vx, vy = v[0], v[1]
        if vx == 0 and vy == 0:
            raise ZeroVector("rays must be nonzero")
        c = ux * vy - uy * vx
        if c == 0:
            d = ux * vx + uy * vy
            if d > 0:
                raise ParallelSameDirection(
                    "rays %s and %s point the same way" % ((ux, uy), (vx, vy))
                )
        ang = atan2(c, ux * vx + uy * vy)
        approx += ang if ang > 0 else ang + two_pi
        for which in (0, 1):
            if which:
                mx, my = -w0x, -w0y
            else:
                mx, my = w0x, w0y
            c_um = ux * my - uy * mx
            c_mv = mx * vy - my * vx
            if c > 0:
                inside = c_um > 0 and c_mv > 0
            elif c < 0:
                inside = c_um > 0 or c_mv > 0
            else:
                inside = c_um > 0
            if inside:
                crossings[which] += 1
            elif c_mv == 0 and mx * vx + my * vy > 0:
                if idx == last:
                    final_landing = Landing.START if which == 0 else Landing.ANTIPODE
                else:
                    crossings[which] += 1
        ux, uy = vx, vy
    c = crossings[0] + crossings[1]
    # markers alternate starting with the antipode at angle pi
    if crossings[1] != (c + 1) // 2 or crossings[0] != c // 2:
        raise InternalInvariantError(
            "marker alternation violated: %s for rays %s" % (crossings, rays)
        )
    if final_landing is Landing.ANTIPODE and c % 2 != 0:
        raise InternalInvariantError("antipode landing with odd crossing count")
    if final_landing is Landing.START and c % 2 != 1:
        raise InternalInvariantError("start landing with even crossing count")

    if c >= 1:
        vs_pi = Cmp.GT
    elif final_landing is Landing.ANTIPODE:
        vs_pi = Cmp.EQ
    else:
        vs_pi = Cmp.LT
    if c >= 2:
        vs_two_pi = Cmp.GT
    elif c == 1 and final_landing is Landing.START:
        vs_two_pi = Cmp.EQ
    else:
        vs_two_pi = Cmp.LT
    return WindingVerdict(
        vs_pi=vs_pi,
        vs_two_pi=vs_two_pi,
        crossings_of_start=crossings[0],
        crossings_of_antipode=crossings[1],
        final_landing=final_landing,
        approx_degrees=math.degrees(approx),
    )
