"""Strong and weak scaling laws, and recovering the parallel fraction.

Walks the two classic models: the bounded strong-scaling curve (fixed
problem size) and the unbounded weak-scaling line (fixed per-worker size),
then inverts measured speedups back to the parallel fraction they imply.
Each law takes its parallel fraction and unit count directly,
amdahl_speedup(f, n) and gustafson_speedup(f, n), mirroring the inverses.
"""

import numpy as np

from granscale import (
    amdahl_speedup,
    gustafson_speedup,
    infer_amdahl_fraction,
    infer_gustafson_fraction,
)

ns = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]

print("Strong scaling (fixed problem size) for several parallel fractions:")
print(f"{'n':>5}", *(f"f={f:.2f}" for f in (0.5, 0.9, 0.99)), sep="  ")
for n in ns:
    row = [amdahl_speedup(f, n) for f in (0.5, 0.9, 0.99)]
    print(f"{n:>5}", *(f"{s:6.2f}" for s in row), sep="  ")

print("\nNote the plateau: with f=0.9 the speedup can never exceed "
      f"{amdahl_speedup(0.9, 10**9):.1f}.")

print("\nWeak scaling (fixed per-worker size) has no such bound:")
for f in (0.5, 0.9, 0.99):
    print(f"  f*={f:.2f}: S(512) = {gustafson_speedup(f, 512):,.1f}")

print("\nInverting a measured speedup back to the fraction it implies:")
measured = 4.70588
est = infer_amdahl_fraction(measured, 8)
print(f"  strong: S={measured} at n=8  ->  f = {est.value:.4f}")
measured = 7.948  # a published weak-scaling measurement at 8 workers
est = infer_gustafson_fraction(measured, 8)
print(f"  weak:   S={measured} at n=8  ->  f* = {est.value:.4f}")

sup = infer_amdahl_fraction(9.5, 8)
print(f"\nSuperlinear measurements are clamped and flagged: "
      f"S=9.5 at n=8 -> f={sup.value}, anomalous={sup.anomalous}")
