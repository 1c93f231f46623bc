"""Tour of the divergence catalog: base measures, chains, and families.

Run with: python3 demos/02_divergence_catalog.py
"""

import numpy as np

from divcascade import analysis, cascade, catalog, generators

print("The catalog registers 108 named measures plus t-indexed families.")
print("Base divergences at (a, b) = (4, 1):")
for mid, desc in [("delta", "triangular discrimination"),
                  ("h", "Hellinger discrimination"),
                  ("K", "sqrt(ab)-weighted chi-square"),
                  ("psi", "symmetric chi-square"),
                  ("F", "quartic over x^(3/2)"),
                  ("L", "quartic over x^2, (x+1) weighted")]:
    print(f"  {mid:6s} {desc:34s} = {catalog.get(mid).value(4.0, 1.0):.6f}")

print()
print("Nine scaled measures form a single increasing chain:")
print("  2*delta <= (24/7)D_CN <= (8/3)D_CG <= (24/5)D_RG <= 8h")
print("         <= K <= psi/2 <= F/2 <= L/8")
pair = (4.0, 1.0)
row = [cascade.W(i, pair) for i in range(1, 10)]
print("  at (4, 1):", "  ".join(f"{v:.4f}" for v in row))

print()
print("Each inequality step has a sharp constant: the supremum of the")
print("ratio of second derivatives, always attained in the limit x -> 1.")
part = cascade.THEOREM_PARTS["2.1:1"]
sup, arg, limit = analysis.estimate_sup_ratio(part.small, part.big)
print(f"  example: sup f''_{part.small}/f''_{part.big} = {sup:.10f} "
      f"near x = {arg:.3f}; limit at 1 = {limit:.10f} (exact {part.beta})")

print()
print("The step is certified by a nonnegative residual measure:")
out = cascade.residual_decompositions(part, pair)
print(f"  {out['claim']}")
print(f"  lhs = {out['lhs']:.10f}, rhs = {out['rhs']:.10f}, "
      f"residual = {out['residual']:.3e}")

print()
print("Families: scaling one generator by a constant ratio in t gives")
print("divergences whose 1/t!-weighted series sums to a closed form.")
fid = "Hgen"
pair = (3.0, 1.0)
q = generators.step_ratio(fid, pair)
partial = generators.exp_series_partial(fid, pair, 30)
closed = generators.exp_representation(fid, pair)
print(f"  family {fid} at (3, 1): step ratio {q:.6f}")
print(f"  30-term series {partial:.12f} vs closed form {closed:.12f}")
print(f"  members t=0..4:",
      "  ".join(f"{generators.family(fid, t, pair):.5f}" for t in range(5)))

print()
print("Convexity of every member is proved from the exact second")
print("derivative (u-1)^m N(u)/D(u): m is even, N(1) and D(1) share a sign,")
print("and N and D have no root in u > 0: for some k, (1 + u)^k times each")
print("has coefficients of one sign (a Polya certificate).  The exact")
print("derivative is spot-checked by 40-digit central differences:")
res = analysis.certify_convexity("Hgen:3")
f2 = catalog.get("Hgen:3").fpp
print(f"  Hgen:3 -> {res.verdict}: m = {f2.m}, Polya k of N and D: "
      f"{f2.num.polya_degree()}, {f2.den.polya_degree()}; "
      f"{res.samples} spot points")
