"""Verify the sampler's distribution analytically, without Monte Carlo.

For any graph and threshold theta the per-attempt probability of every
directed edge has a closed form, so closeness to uniform can be computed
exactly (as rationals) instead of estimated. This script sweeps theta on
a skewed graph and shows the tradeoff the threshold controls: larger
theta means a more uniform conditional distribution but a smaller success
probability per attempt.
"""

from fractions import Fraction

from edgesample import (
    attempt_distribution,
    conditional_closeness,
    enumerate_attempt_distribution,
    verify_attempt_bounds,
)
from edgesample.generators import generate
from edgesample.graph import build_graph
from edgesample.sampler import threshold_for

# Two adjacent hubs with three leaves each: hub->hub edges are the hard
# case, since both endpoints are high-degree.
g = build_graph([(0, 1)] + [(0, v) for v in (2, 3, 4)] + [(1, v) for v in (5, 6, 7)], 8)
print(f"double star: degrees {g.degrees()}, m={g.m_dir}\n")

print("theta | success/attempt | max ratio dev | TV distance")
for theta in range(1, 8):
    dist = attempt_distribution(g, theta)
    if dist.success_prob == 0:
        print(f"{theta:5d} | {'0':>15} | attempt can never succeed")
        continue
    rep = conditional_closeness(dist)
    print(
        f"{theta:5d} | {str(dist.success_prob):>15} | "
        f"{str(rep.max_ratio_dev):>13} | {str(rep.tv_distance):>11}"
    )

# The closed form is anchored by brute force: enumerate the attempt's full
# sample space (coin x vertex x slot x neighbor pick) and compare exactly.
theta = 3
assert enumerate_attempt_distribution(g, theta) == attempt_distribution(g, theta).per_edge
print("\nclosed form == exhaustive enumeration at theta=3 (exact rationals)")

# Every bound the attempt analysis promises, with margins.
eps = 0.25
auto_theta = threshold_for(float(g.m_dir), eps)
print(f"\nbound margins at eps={eps}, theta={auto_theta}:")
for check in verify_attempt_bounds(g, auto_theta, eps).checks:
    status = "ok" if check.passed else "VIOLATED"
    if not check.applicable:
        status = "n/a"
    margin = "" if check.margin is None else f" margin={float(check.margin):.4g}"
    print(f"  {check.name:42s} {status}{margin}")

# Same verification on a generated graph at the automatically chosen theta.
big = generate("er:500,0.02", seed=5)
theta = threshold_for(float(big.m_dir), 0.1)
rep = conditional_closeness(attempt_distribution(big, theta))
print(f"\ner:500,0.02 at eps=0.1: theta={theta}, "
      f"max ratio dev={float(rep.max_ratio_dev):.3g} (<= 0.1 guaranteed), "
      f"TV={float(rep.tv_distance):.3g}")
assert rep.max_ratio_dev <= Fraction(1, 10)
