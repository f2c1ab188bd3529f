"""Fiber topological entropy from separated-set growth.

For the random system that applies x -> 2x or x -> 3x by a fair coin, the
fiber entropy is (log 2 + log 3) / 2 = 0.8959. Counting (n, eps)-separated
orbits along one driving path and fitting log count against n recovers it,
and the Bowen and FK metrics give the same slope.
"""

import math

from fkent.spanning import count_table, entropy_from_counts
from fkent.systems import bernoulli_process, expanding_system, sample_path

system = expanding_system((2, 3))
proc = bernoulli_process((0.5, 0.5))
n_list = [6, 8, 10]
eps_list = [0.2, 0.1]

path = sample_path(proc, max(n_list), seed=11)
table = count_table(system, path, n_list, eps_list, count_target=800, budget=60_000)

print("separated-orbit counts along one driving path")
print("n    eps    bowen    fk")
for n in n_list:
    for eps in eps_list:
        cb = table.cells[("bowen", n, eps)].count
        cf = table.cells[("fk", n, eps)].count
        print(f"{n:<4d} {eps:<6g} {cb:<8d} {cf}")

print()
for metric in ("bowen", "fk"):
    est = entropy_from_counts(table, metric)
    print(f"{metric} slope: {est.value:.4f}")
print(f"expected:    {0.5 * (math.log(2) + math.log(3)):.4f}")
