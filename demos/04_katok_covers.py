"""Entropy from minimal covers of most of the measure.

Instead of covering everything, cover a fixed fraction of an empirical
measure with dynamical balls and watch the minimal count grow. On the
doubling map the time-n ball is an interval of length 0.1 * 2^(2-n), so
covering 90% of the circle takes about 0.9 / length balls: the count
quadruples with each n += 2 step and the slope is log 2.

For word systems balls are prefix classes, which are disjoint, so the
greedy cover is the exact optimum and the count is affordable even at
a million samples.
"""

import math

from fkent.katok import katok_entropy, katok_spanning_count, katok_table, table_slopes
from fkent.local import sample_measure
from fkent.systems import bernoulli_process, expanding_system, sample_path, shift_system

system = expanding_system((2,))
proc = bernoulli_process((1.0,))
path = sample_path(proc, 10, seed=2)
mu = sample_measure(system, path, 10_000, seed=2)

print("doubling map, 10000 samples, cover 90% of the mass")
print("n    balls  covered   expected-ish")
for n in (4, 6, 8):
    # dense cover pairs scale as M^2; the default budget stops casual
    # runs at M ~ 4500, so opt in for 10^8 pair tests
    cell = katok_spanning_count(mu, n, 0.1, 0.9, "bowen", pair_budget=10**8)
    rough = 0.9 / (0.1 * 2.0 ** (2 - n))
    print(f"{n:<4d} {cell.count:<6d} {cell.covered_mass:.4f}    {rough:.0f}")

table = katok_table(mu, [4, 6, 8], [0.1], pair_budget=10**8)
fit = table_slopes(table, "bowen")
print(f"slope {fit.value:.4f} (rms {fit.residuals[0]:.3f}), expected {math.log(2):.4f}")

print()
print("full 2-shift, word fast path at M = 10^6")
sh = shift_system((2, 2))
sh_proc = bernoulli_process((0.5, 0.5))
est = katok_entropy(sh, sh_proc, [8, 10, 12], [0.05], 1_000_000, "bowen", master_seed=13)
print(f"katok slope {est.value:.4f}, expected {math.log(2):.4f}")
