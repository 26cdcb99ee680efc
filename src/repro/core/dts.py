"""The Delay-based Traffic Shifting (DTS) factor — Eq. (5) and Algorithm 1.

The paper's central design element: a sigmoid of the path-quality ratio
``baseRTT_r / RTT_r`` that scales the window-increase aggressiveness,

    eps_r = 2 / (1 + exp(-10 (baseRTT_r/RTT_r - 1/2)))            (Eq. 5)

so that an uncongested path (ratio -> 1) gets eps -> ~2/(1+e^-5) ~ 1.99
(aggressive growth), while a path whose RTT has inflated far above its
propagation floor (ratio -> 0) gets eps -> ~2/(1+e^5) ~ 0.013 (window
growth effectively frozen, shifting traffic away). The paper chooses the
centre 1/2 because the ratio's "expectation is 1/2", making ``psi = c*eps``
with ``c = 1`` satisfy the TCP-friendliness condition in expectation.

Algorithm 1 implements the exponential with integer arithmetic (a
third-order Taylor expansion scaled by 100) because the Linux kernel cannot
use floating point; :func:`epsilon_taylor` reproduces that fixed-point
computation, including its divergence from the true sigmoid at extreme
ratios, which the ablation bench quantifies.

Eq. 5 has one body, :func:`dts_factor`, written over an array namespace
(:mod:`repro._scalar`): the per-ACK controllers evaluate it on the
standard library, the batch and fluid engines and the Section IV
decomposition over ``numpy`` arrays.  The namespace also picks the
exponential — ``math.exp`` and ``np.exp`` are different libms that
disagree in the last ulp on a few percent of inputs — so two paths that
must agree bit for bit pass the same one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import _scalar
from repro.errors import ModelError


@dataclass(frozen=True)
class DtsFactorConfig:
    """Tunable form of the DTS factor, for ablations.

    The paper's published constants are ``slope=10``, ``center=0.5``,
    ``ceiling=2.0`` and the exact exponential.
    """

    slope: float = 10.0
    center: float = 0.5
    ceiling: float = 2.0
    use_taylor: bool = False

    def __post_init__(self) -> None:
        if self.slope <= 0:
            raise ModelError(f"slope must be positive, got {self.slope}")
        if self.ceiling <= 0:
            raise ModelError(f"ceiling must be positive, got {self.ceiling}")

    def epsilon(self, base_rtt: float, rtt: float) -> float:
        """Evaluate the factor for one path."""
        if self.use_taylor:
            return epsilon_taylor(base_rtt, rtt, slope=self.slope, center=self.center,
                                  ceiling=self.ceiling)
        if rtt <= 0:
            raise ModelError(f"RTT must be positive, got {rtt}")
        return dts_factor(_scalar, base_rtt, rtt, self.slope, self.center, self.ceiling)


def path_quality(xp, base_rtt, rtt):
    """The path-quality ratio baseRTT/RTT, clamped to (0, 1], over ``xp``.

    ``baseRTT`` is the minimum RTT observed on the path; the ratio is 1 on
    an idle path and falls toward 0 as queueing inflates the RTT.  No
    valid sample yet — ``base_rtt`` non-positive, or infinite, which the
    clamp already maps to 1 — reads as an unqueued path.  ``rtt`` must be
    positive.
    """
    return xp.where(base_rtt <= 0.0, 1.0, xp.minimum(1.0, base_rtt / rtt))


def dts_factor(xp, base_rtt, rtt, slope=10.0, center=0.5, ceiling=2.0):
    """Eq. (5) over the namespace ``xp`` — the one body every engine calls."""
    ratio = path_quality(xp, base_rtt, rtt)
    return ceiling / (1.0 + xp.exp(-slope * (ratio - center)))


def rtt_ratio(base_rtt: float, rtt: float) -> float:
    """:func:`path_quality` for one path, ``rtt`` validated."""
    if rtt <= 0:
        raise ModelError(f"RTT must be positive, got {rtt}")
    return path_quality(_scalar, base_rtt, rtt)


def epsilon_exact(
    base_rtt: float,
    rtt: float,
    *,
    slope: float = 10.0,
    center: float = 0.5,
    ceiling: float = 2.0,
) -> float:
    """Eq. (5) for one path with the exact (``math``) exponential."""
    return DtsFactorConfig(slope, center, ceiling).epsilon(base_rtt, rtt)


def epsilon_taylor(
    base_rtt: float,
    rtt: float,
    *,
    slope: float = 10.0,
    center: float = 0.5,
    ceiling: float = 2.0,
) -> float:
    """Algorithm 1's integer/fixed-point evaluation of Eq. (5).

    The kernel computes ``u = 10 * baseRTT/RTT - 5`` and approximates
    ``100 * exp(u)`` by the third-order Taylor polynomial

        num = 100 + 100 u + 50 u^2 + 17 u^3

    (17 ~ 100/6), then returns ``eps = 2 * num / (100 + num)``, which is
    algebraically ``2 / (1 + e^{-u})`` when ``num = 100 e^u``. The cubic
    goes negative below ``u ~ -2.6``; we clamp the numerator at 1 (one
    fixed-point unit), mirroring what unsigned kernel arithmetic enforces.
    """
    ratio = rtt_ratio(base_rtt, rtt)
    u = slope * ratio - slope * center
    num = 100.0 + 100.0 * u + 50.0 * u * u + 17.0 * u * u * u
    num = max(1.0, num)
    return ceiling * num / (100.0 + num)


def taylor_absolute_error(ratio: float, *, slope: float = 10.0, center: float = 0.5) -> float:
    """|taylor - exact| at a given baseRTT/RTT ratio (both with ceiling 2)."""
    if not 0.0 < ratio <= 1.0:
        raise ModelError(f"ratio must be in (0, 1], got {ratio}")
    base, rtt = ratio, 1.0
    return abs(
        epsilon_taylor(base, rtt, slope=slope, center=center)
        - epsilon_exact(base, rtt, slope=slope, center=center)
    )
