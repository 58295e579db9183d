"""Reference pair and jump counts for the README table.

For Poisson(1) on [0,s]^2 (seed 1, stream 0) and each body, prints the
ordered pairs and step-function jumps of kscope's ``k_hat`` at the test
radius ``c^alpha R`` (alpha = 1/2, R = 1), next to the oracle's counts.

    python3 bench/reference_counts.py
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import kscope  # noqa: E402
import oracle as O  # noqa: E402
from kscope.pattern import pair_arrays  # noqa: E402

print("| window | body | ordered pairs | jumps | oracle pairs | oracle jumps |")
print("|---|---|---|---|---|---|")
for side in (30, 100, 170):
    window = kscope.Box([0, 0], [side, side])
    pattern = kscope.simulate(kscope.PoissonModel(1.0), window, kscope.SeedSpec(1, 0))
    u = side**0.5
    for shape in ("l1", "l2", "linf"):
        body = kscope.StructuringBody(2, shape)
        pairs = pair_arrays(pattern.points, body, u)[0].size
        jumps = kscope.k_hat(pattern, body, u).jump_radii.size
        ref = O.KStep(pattern.points, O.box([0, 0], [side, side]), shape, u)
        print(f"| [0,{side}]^2 (n={len(pattern)}) | {shape} | {pairs} | {jumps} "
              f"| {ref.ordered_pairs} | {ref.jumps} |", flush=True)
