#!/usr/bin/env python3
"""Reproduce the band-function family portrait as plot-ready CSV.

Writes band_portrait.csv (n=5, m=0..6, p=1..3, xi in [-1, 6]) next to this
script; pass --plot to also render a quick figure if matplotlib is around.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

from magband import Grid, coupling_constant, sweep
from magband.tables import SWEEP_HEADER, render_csv, sweep_rows

HERE = pathlib.Path(__file__).resolve().parent

xi = -1.0 + 0.05 * np.arange(141)
grid = Grid(20.0, 4800)
curves = sweep(5, range(7), range(1, 4), xi, grid)

out = HERE / "band_portrait.csv"
out.write_text(render_csv(SWEEP_HEADER, sweep_rows(curves)))
print(f"wrote {out} ({len(curves)} bands x {xi.size} samples)")

# tail of the lowest band against its leading-order k_m / xi^2 prediction
for c in curves:
    if c.p == 1:
        k = float(coupling_constant(5, c.m))
        print(f"m={c.m}: lambda(6) - E_1 = {c.values[-1] - 1.0:.4f}   "
              f"k_m/36 = {k / 36.0:.4f}")

if "--plot" in sys.argv[1:]:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the figure")
        raise SystemExit(0)
    fig, ax = plt.subplots(figsize=(7, 5))
    for c in curves:
        ax.plot(c.xi, c.values, lw=0.8,
                color=plt.cm.viridis(c.m / 6.0), alpha=0.5 + 0.5 * (c.p == 1))
    for p in (1, 2, 3):
        ax.axhline(2 * p - 1, color="gray", ls=":", lw=0.6)
    ax.set(xlabel=r"$\xi$", ylabel=r"$\lambda_{m,p}(\xi)$", ylim=(0, 14))
    fig.tight_layout()
    fig.savefig(HERE / "band_portrait.png", dpi=150)
    print(f"wrote {HERE / 'band_portrait.png'}")
