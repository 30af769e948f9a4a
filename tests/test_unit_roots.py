"""The integer enclosures of the roots of unity against mpmath.

``fields._unit_root_box(n, k, prec)`` promises integers c_lo, c_hi, s_lo,
s_hi with c_lo <= 2^prec cos(2 pi k/n) <= c_hi, the same for sin, each side
at most 2 units wide, and the exact box at every quarter turn.  mpmath gives
cos and sin at 2 prec + 32 bits, so its own rounding at the box's scale is
far below the slack of 2^-(prec + 16) allowed here; the slack only matters
where 2^prec cos is an integer (cos = 0, +-1/2, +-1).

Test-only use of mpmath; the module is skipped when it is absent.
"""

import random

import pytest

mpmath = pytest.importorskip("mpmath")

from ratsym.fields import _unit_root_box  # noqa: E402
from ratsym.jsonio import MAX_CONDUCTOR  # noqa: E402
from ratsym.moduli import MAX_PRECISION  # noqa: E402


def _check(n, k, prec):
    c_lo, c_hi, s_lo, s_hi = box = _unit_root_box(n, k, prec)
    assert c_hi - c_lo <= 2 and s_hi - s_lo <= 2, (n, k, prec, box)
    if 4 * k % n == 0:
        one = 1 << prec
        assert box == [(one, one, 0, 0), (0, 0, one, one), (-one, -one, 0, 0),
                       (0, 0, -one, -one)][4 * k // n % 4], (n, k, prec)
    with mpmath.workprec(2 * prec + 32):
        x = mpmath.mpf(2 * k) / n
        cos, sin = (mpmath.ldexp(f(x), prec) for f in (mpmath.cospi, mpmath.sinpi))
        eps = mpmath.ldexp(1, -prec - 16)
        assert c_lo - eps <= cos <= c_hi + eps, (n, k, prec, box)
        assert s_lo - eps <= sin <= s_hi + eps, (n, k, prec, box)


def test_every_root_up_to_the_largest_conductor():
    for n in range(1, MAX_CONDUCTOR + 1):
        for k in range(n):
            _check(n, k, 24)


@pytest.mark.parametrize("prec", [1, 2, 3, 7, 64, 160, 521, 1024, 2048,
                                  MAX_PRECISION, MAX_PRECISION + 16])
def test_a_sample_up_to_the_largest_working_precision(prec):
    rng = random.Random(prec)
    for n in [4, 8, 12] + [rng.randint(3, MAX_CONDUCTOR) for _ in range(6)]:
        for k in {0, n // 4, n // 2, n - 1, rng.randrange(n), rng.randrange(n)}:
            _check(n, k, prec)

