#!/usr/bin/env python3
"""Edge/bulk current dichotomy for the window (1.5, 2.5) at n=5.

Builds a low-angular-momentum edge packet (nonvanishing current, bounded
away from zero by C^-) and contrasts it with single high-m bulk modes whose
current dies off like 1/sqrt(k_m); finally exhibits a unit packet with
|current| below 1e-2.
"""

from __future__ import annotations

from magband import SpectralWindow, current_dichotomy

WINDOW = SpectralWindow(1.5, 2.5)

result = current_dichotomy(5, WINDOW, 3, [10, 20, 30], 1e-2)
report, c_minus = result.edge, result.c_minus
print("edge packet (m = 0..3, p = 1):")
print(f"  normalized current = {report.normalized:+.6f}")
print(f"  guaranteed floor C^- = {c_minus:.6f}  "
      f"(|J| / C^- = {abs(report.normalized) / c_minus:.2f})")

print()
print("single bulk modes beyond a cutoff M:")
study = result.bulk
for M, k, j in zip(study.m_cut, study.coupling, study.normalized_current):
    print(f"  M = {M:>2}: m = {M + 1:>2}, k_m = {k:7.2f}, "
          f"normalized current = {j:+.6f}")
print(f"  decay slope vs k_m: {study.slope:+.4f} +/- {study.slope_err:.4f} "
      f"(law: -1/2)")

print()
m, value = result.witness
print(f"witness: single mode at m = {m} carries |current| = {abs(value):.3e} <= 1e-2")
