"""Gap sequences: the jump sizes of the component count as delta shrinks.

For a finite union of rectangles the jumps are exactly the positive edge
weights of a minimum spanning tree under set distance, so the library
computes them with a tree-based Borůvka MST (and a quadratic oracle for
cross-checking).  For the Cantor ternary set the answer is classical:
gap 3^-n appears 2^(n-1) times.
"""

import math

from lgcarpet import (
    gap_sequence_bruteforce,
    gap_sequence_mst,
    gap_sequence_of_carpet,
    n_delta_components,
    scaling_fit,
    solve_bdim,
    synth,
)

rects = synth.cantor_intervals(6)
seq = gap_sequence_mst(rects)
print("Cantor level 6, gap sequence (value, multiplicity):")
for n, (value, mult) in enumerate(seq.entries, start=1):
    print(f"  3^-{n} = {value:.10f}  x{mult}")

oracle = gap_sequence_bruteforce(rects)
print("oracle route agrees:", seq.entries == oracle.entries)

print()

# the component count at a few thresholds, dropping by the multiplicities
for delta in (0.4, 0.1, 0.04, 0.01):
    print(f"components at delta={delta}: {n_delta_components(rects, delta)}")

print()

# carpet gap sequence at resolution 3^-7, checked against alpha_k ~ k^(-1/s)
dust = synth.cantor_dust()
s = solve_bdim(dust).s
seq = gap_sequence_of_carpet(dust, 3.0 ** -7)
print(f"dust at delta_res 3^-7: {len(seq.entries)} distinct gap values, "
      f"{seq.total_multiplicity} gaps, value error {seq.value_error:.2e}")
fit = scaling_fit(seq, s)
print(f"log-log slope {fit.slope:.4f} (the k^(-1/s) law predicts "
      f"{-1 / s:.4f}), r2 = {fit.r2:.4f}")
lo, hi = fit.ratio_band
print(f"alpha_k * k^(1/s) stays within [{lo:.4f}, {hi:.4f}] "
      f"(ratio {hi / lo:.2f})")
