"""Machine-speed calibration for time metrics on a shared, noisy host.

On the 2-vCPU VM this benchmark was built on, the same op's wall time
drifts by ±30% within seconds with the load of other tenants.  CPU time
drifts the same way, so the CPU itself gets slower, and no statistic taken
within one run removes it.  A fixed kernel, timed in CPU time before every
op, tracks that drift.  Over 10-s slices of a 60-s qubit run, the spread
(IQR / median) of median op time was 36% raw and 3% after scaling.

The kernel uses numpy and the interpreter only, never unsharpjoint.  It
mixes what the library's ops spend time on: small Hermitian eigensolves,
one 48x48 eigensolve, small array arithmetic and dictionary work.  Op i's
speed factor is ``REFERENCE_S`` over the mean of the samples taken just
before and just after it.  A time scaled by it is what the op would take
with the machine at its reference speed, the speed at which the kernel
takes ``REFERENCE_S``.  The machine often switches speed within a few
milliseconds; averaging the two samples around an op, rather than taking
a median over more of them, keeps such a switch from inflating the op.
"""

from __future__ import annotations

from time import process_time

import numpy as np

# The kernel's median time on a quiet 2-vCPU x86-64 VM with Python 3.11.7,
# numpy 2.4.6, scipy-openblas 0.3.31 and one BLAS thread.
REFERENCE_S = 1.2e-3


def _hermitian(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20260)
        self.small = [_hermitian(rng, 4) for _ in range(20)]
        self.large = _hermitian(rng, 48)

    def sample(self) -> float:
        """CPU seconds the kernel takes now."""
        t0 = process_time()
        for m in self.small:
            eigs = np.linalg.eigvalsh(m)
            float(np.max(np.abs(m @ m - m.conj().T)))
            sum(float(x) for x in eigs)
        np.linalg.eigh(self.large)
        counts: dict[int, int] = {}
        for i in range(800):
            counts[i % 17] = counts.get(i % 17, 0) + i
        return process_time() - t0


def speed_factors(samples: list[float]) -> list[float]:
    """Factor per op; samples[i] was taken just before op i, the last after the last op."""
    return [2.0 * REFERENCE_S / (before + after) for before, after in zip(samples, samples[1:])]
