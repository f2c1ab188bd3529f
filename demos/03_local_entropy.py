"""Local entropy from the decay of dynamical ball masses.

Sampling Lebesgue measure on the circle and tracking the empirical mass
of balls around a point: for the doubling map the time-n ball of radius
delta is an interval of length delta * 2^(2-n), so -log(mass)/n tends to
log 2. The FK ball is fatter once the slack band opens, yet the decay
rate is the same.
"""

import math

from fkent.local import ball_measure, local_entropy, sample_measure
from fkent.systems import bernoulli_process, expanding_system, orbit, sample_path

system = expanding_system((2,))
proc = bernoulli_process((1.0,))
path = sample_path(proc, 12, seed=3)
mu = sample_measure(system, path, 300_000, seed=3)

x = 0.37
delta = 0.1
print(f"ball masses around x={x}, delta={delta}, M={mu.M} samples")
print("n    bowen mass  exact       fk mass")
for n in (2, 4, 6, 8):
    center = orbit(system, path, x, n)
    mb = ball_measure(mu, center, n, delta, "bowen")
    mf = ball_measure(mu, center, n, delta, "fk")
    exact = delta * 2.0 ** (2 - n)
    print(f"{n:<4d} {mb:<11.6f} {exact:<11.6f} {mf:.6f}")

print()
_, fits = local_entropy(mu, x, [4, 6, 8, 10], [0.2, 0.1])
for kind, fit in fits.items():
    print(f"{kind} local entropy at x: {fit.value:.4f}")
print(f"expected:                {math.log(2):.4f}")
