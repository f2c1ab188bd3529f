"""Tour of the two orbit metrics.

Two orbits of the random doubling/tripling system are compared under the
worst-step (Bowen) distance and the matching (Feldman-Katok) distance.
The FK distance ignores a sparse set of bad steps, so a single large
excursion costs little, while the Bowen distance pays for it in full.
"""

import numpy as np

from fkent.matching import bowen_distance, fk_distance, match_target, max_match_size
from fkent.systems import bernoulli_process, expanding_system, orbit, sample_path

system = expanding_system((2, 3))
path = sample_path(bernoulli_process((0.5, 0.5)), 16, seed=4)

rng = np.random.default_rng(4)
x = float(rng.random())
n = 12
a = orbit(system, path, x, n)
b = orbit(system, path, x + 1e-4, n)  # nearby start, same driving path

print("driving word:", "".join(str(path.symbol(k)) for k in range(n)))
print(f"start points: {x:.6f} and {x + 1e-4:.6f}")

d_bowen = bowen_distance(a, b)
d_fk = fk_distance(a, b).value
print(f"bowen distance over {n} steps: {d_bowen:.6f}")
print(f"fk distance over {n} steps:    {d_fk:.6f}")

# the expansion stretches the gap step by step; the worst step dominates
# the bowen value while fk may drop the few blown-up steps
for eps in (0.3, 0.1, 0.03):
    k = max_match_size(a, b, eps)
    print(f"eps={eps}: {k}/{n} steps matched within eps")

# how many steps an fk ball of radius delta may ignore
print("\nsteps an fk ball may drop (slack band):")
for nn in (8, 10, 12, 14):
    for delta in (0.2, 0.1, 0.05):
        band = nn - match_target(nn, delta)
        mark = " <- same as bowen ball" if band == 0 else ""
        print(f"  n={nn:2d} delta={delta}: band {band}{mark}")
