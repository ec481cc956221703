"""Exponentially graded radial meshes and per-node dilation radii.

Nodes follow x_i = exp(ln(I_a + eps) + i*delta) - eps with
delta = (ln(I_b + eps) - ln(I_a + eps)) / n, so a smaller intensity eps
drags more nodes toward the origin.  Every node carries a dilation
radius rho_j = nu * max(h_j, h_{j+1}) that defines its cloud support.
"""
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridConfig:
    n_intervals: int
    I_a: float = 0.0
    I_b: float = 100.0
    eps: float = 1e-5
    nu: float = 2.2

    def __post_init__(self):
        if self.n_intervals < 2:
            raise ValueError(f"n_intervals must be >= 2, got {self.n_intervals}")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        # NaN fails every comparison, so these reject NaN as well as inf
        if not 0.0 <= self.I_a < self.I_b < np.inf:
            raise ValueError(f"need finite 0 <= I_a < I_b, got [{self.I_a}, {self.I_b}]")
        if not 1.0 < self.nu < np.inf:
            raise ValueError(f"nu must be finite and exceed 1 so clouds overlap, got {self.nu}")


@dataclass(frozen=True, eq=False)
class Grid:
    nodes: np.ndarray      # x_0 .. x_n
    dilations: np.ndarray  # rho_j per node

    @property
    def spacings(self):
        """h_k = x_k - x_{k-1}, k = 1..n, read off the nodes."""
        return np.diff(self.nodes)

    @property
    def n_intervals(self):
        return len(self.nodes) - 1


def generate_grid(cfg: GridConfig) -> Grid:
    n = cfg.n_intervals
    la = np.log(cfg.I_a + cfg.eps)
    lb = np.log(cfg.I_b + cfg.eps)
    i = np.arange(n + 1)
    x = np.exp(la + i * (lb - la) / n) - cfg.eps
    # force the endpoints; the formula gives them only up to round-off
    x[0], x[-1] = cfg.I_a, cfg.I_b
    h = np.diff(x)
    if np.any(h <= 0.0):
        raise ValueError("grid degenerated: non-increasing nodes")
    rho = np.empty_like(x)
    rho[0] = cfg.nu * h[0]
    rho[-1] = cfg.nu * h[-1]
    rho[1:-1] = cfg.nu * np.maximum(h[:-1], h[1:])
    return Grid(nodes=x, dilations=rho)
