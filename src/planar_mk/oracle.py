"""Exact transportation LP used as ground truth at desk scale.

The solver is a self-contained transportation simplex (northwest-corner
start, Bland's entering rule, lexicographic supply perturbation against
degeneracy). Instances here are tiny, so exactness beats speed: no external
LP dependency, flows recomputed on the final basis tree with the original
unperturbed masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DiscreteDensity2D


class UnbalancedInstanceError(ValueError):
    pass


class SizeLimitError(ValueError):
    pass


# Total flow-matrix entries the simplex will accept by default; keeps the
# full planar solve at grids of at most 8x8 per axis (64 atoms per side).
MAX_ATOMS_PER_SIDE = 64

_BALANCE_TOL = 1e-12
_RC_TOL = 1e-11  # reduced-cost threshold for entering arcs
_PERTURB = 1e-13  # lexicographic supply perturbation


@dataclass(frozen=True)
class TransportInstance:
    supply: np.ndarray
    demand: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        supply = np.asarray(self.supply, dtype=float)
        demand = np.asarray(self.demand, dtype=float)
        cost = np.asarray(self.cost, dtype=float)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "cost", cost)
        if supply.ndim != 1 or demand.ndim != 1:
            raise ValueError("supply and demand must be 1-D")
        if cost.shape != (supply.size, demand.size):
            raise ValueError("cost must be (len(supply), len(demand))")
        if np.any(supply < 0) or np.any(demand < 0):
            raise ValueError("masses must be nonnegative")
        if np.any(cost < 0):
            raise ValueError("costs must be nonnegative")
        if abs(supply.sum() - 1.0) > _BALANCE_TOL or abs(demand.sum() - 1.0) > _BALANCE_TOL:
            raise UnbalancedInstanceError(
                f"masses must each sum to 1 (got {supply.sum()}, {demand.sum()})"
            )


@dataclass(frozen=True)
class TransportPlan:
    flows: np.ndarray
    objective: float

    def marginal_errors(self, supply: np.ndarray, demand: np.ndarray) -> tuple[float, float]:
        r = float(np.max(np.abs(self.flows.sum(axis=1) - supply)))
        c = float(np.max(np.abs(self.flows.sum(axis=0) - demand)))
        return r, c


def _northwest_corner(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int]]:
    m, k = a.size, b.size
    ra, rb = a.copy(), b.copy()
    i = j = 0
    arcs = [(0, 0)]
    while not (i == m - 1 and j == k - 1):
        step = min(ra[i], rb[j])
        ra[i] -= step
        rb[j] -= step
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        elif j < k - 1:
            j += 1
        else:
            i += 1
        arcs.append((i, j))
    return arcs


def _tree_adjacency(arcs: list[tuple[int, int]], m: int) -> dict[int, list[tuple[int, tuple[int, int]]]]:
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for (i, j) in arcs:
        adj.setdefault(i, []).append((m + j, (i, j)))
        adj.setdefault(m + j, []).append((i, (i, j)))
    return adj


def _duals(arcs: list[tuple[int, int]], cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m, k = cost.shape
    u = np.full(m, np.nan)
    v = np.full(k, np.nan)
    u[0] = 0.0
    adj = _tree_adjacency(arcs, m)
    stack = [0]
    while stack:
        node = stack.pop()
        for nb, (i, j) in adj.get(node, ()):  # u_i + v_j = C_ij on the tree
            if nb >= m and np.isnan(v[nb - m]):
                v[nb - m] = cost[i, j] - u[i]
                stack.append(nb)
            elif nb < m and np.isnan(u[nb]):
                u[nb] = cost[i, j] - v[j]
                stack.append(nb)
    return u, v


def _tree_path(arcs: list[tuple[int, int]], m: int, start: int, goal: int) -> list[int]:
    adj = _tree_adjacency(arcs, m)
    parent = {start: start}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nb, _arc in adj.get(node, ()):
            if nb not in parent:
                parent[nb] = node
                stack.append(nb)
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


def _tree_flows(arcs: list[tuple[int, int]], a: np.ndarray, b: np.ndarray) -> dict[tuple[int, int], float]:
    """Unique arc flows on a basis tree balancing supplies a against demands b."""
    m, k = a.size, b.size
    balance = np.concatenate([a, -b])  # net outflow required at each node
    adj = {node: set() for node in range(m + k)}
    arc_of = {}
    for (i, j) in arcs:
        adj[i].add(m + j)
        adj[m + j].add(i)
        arc_of[(i, m + j)] = (i, j)
    flows: dict[tuple[int, int], float] = {}
    degree = {node: len(nbrs) for node, nbrs in adj.items()}
    leaves = [node for node, d in degree.items() if d == 1]
    bal = balance.astype(float).copy()
    while leaves:
        node = leaves.pop()
        if degree[node] == 0:
            continue
        nb = next(iter(adj[node]))
        if node < m:
            i, j = arc_of[(node, nb)]
            flow = bal[node]  # row leaf ships its remaining supply
        else:
            i, j = arc_of[(nb, node)]
            flow = -bal[node]  # col leaf absorbs its remaining demand
        flows[(i, j)] = flow
        bal[nb] += bal[node]
        bal[node] = 0.0
        adj[node].discard(nb)
        adj[nb].discard(node)
        degree[node] -= 1
        degree[nb] -= 1
        if degree[nb] == 1:
            leaves.append(nb)
    return flows


def solve_lp(instance: TransportInstance) -> TransportPlan:
    """Optimal transport plan by transportation simplex, exact to roundoff."""
    a0, b0, cost = instance.supply, instance.demand, instance.cost
    m, k = cost.shape
    # lexicographic perturbation removes degenerate ties; undone at the end
    a = a0 + _PERTURB * (np.arange(m) + 1)
    b = b0.copy()
    b[-1] += _PERTURB * (m * (m + 1)) / 2

    arcs = _northwest_corner(a, b)
    if len(arcs) != m + k - 1:
        raise RuntimeError(f"northwest-corner basis has {len(arcs)} arcs, expected {m + k - 1}")
    flows = _tree_flows(arcs, a, b)

    basis = set(arcs)
    for _ in range(200 * (m + k) * max(m, k)):
        u, v = _duals(arcs, cost)
        rc = cost - u[:, None] - v[None, :]
        rc_flat = rc.ravel()
        candidates = np.flatnonzero(rc_flat < -_RC_TOL)
        if candidates.size == 0:
            break
        enter = int(candidates[0])  # Bland: smallest index
        ei, ej = divmod(enter, k)

        # unique cycle: entering arc + tree path from its column back to its row
        path = _tree_path(arcs, m, m + ej, ei)
        cycle_nodes = [ei] + path  # row, col, row, col, ..., row(=ei)
        cycle_arcs = []
        for p, q in zip(cycle_nodes[:-1], cycle_nodes[1:]):
            i, j = (p, q - m) if p < m else (q, p - m)
            cycle_arcs.append((i, j))
        # signs alternate starting with + on the entering arc
        minus_arcs = cycle_arcs[1::2]
        theta = min(flows[arc] for arc in minus_arcs)
        leave = next(arc for arc in minus_arcs if flows[arc] == theta)

        for idx, arc in enumerate(cycle_arcs):
            if idx == 0:
                flows[arc] = theta
            elif idx % 2 == 1:
                flows[arc] -= theta
            else:
                flows[arc] += theta
        del flows[leave]
        basis.discard(leave)
        basis.add((ei, ej))
        arcs = list(basis)
    else:
        raise RuntimeError("transportation simplex failed to converge")

    # drop the perturbation: recompute flows of the optimal basis exactly
    final = _tree_flows(arcs, a0, b0)
    flow_mat = np.zeros((m, k))
    for (i, j), f in final.items():
        flow_mat[i, j] = max(f, 0.0)  # basis flows are >= -O(perturbation)
    objective = float(np.sum(flow_mat * cost))
    plan = TransportPlan(flow_mat, objective)
    r_err, c_err = plan.marginal_errors(a0, b0)
    if max(r_err, c_err) > 1e-10:
        raise RuntimeError(f"plan marginals off by {max(r_err, c_err)}")
    return plan


def comonotone_plan_1d(x: np.ndarray, a: np.ndarray, y: np.ndarray, b: np.ndarray) -> TransportPlan:
    """Monotone-rearrangement (quantile) plan for 1-D atoms, squared distance.

    Merges the two sorted cumulative-mass sequences; optimal for quadratic
    cost, which the LP cross-checks.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if abs(a.sum() - 1.0) > _BALANCE_TOL or abs(b.sum() - 1.0) > _BALANCE_TOL:
        raise UnbalancedInstanceError("atom masses must each sum to 1")
    ox = np.argsort(x, kind="stable")
    oy = np.argsort(y, kind="stable")
    flows = np.zeros((x.size, y.size))
    i = j = 0
    ra, rb = a[ox].copy(), b[oy].copy()
    while i < x.size and j < y.size:
        step = min(ra[i], rb[j])
        if step > 0:
            flows[ox[i], oy[j]] += step
        ra[i] -= step
        rb[j] -= step
        if ra[i] <= 0 and i < x.size:
            i += 1
        if rb[j] <= 0 and j < y.size:
            j += 1
    objective = float(np.sum(flows * (x[:, None] - y[None, :]) ** 2))
    return TransportPlan(flows, objective)


def atoms_from_density_2d(d: DiscreteDensity2D) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center atoms (N, 2) and their masses (N,), row-major order."""
    cx, cy = d.grid_x.centers, d.grid_y.centers
    points = np.column_stack([np.repeat(cx, cy.size), np.tile(cy, cx.size)])
    masses = d.cell_masses.ravel()
    return points, masses


@dataclass(frozen=True)
class Planar2DPlan:
    plan: TransportPlan
    source_points: np.ndarray
    target_points: np.ndarray

    @property
    def objective(self) -> float:
        return self.plan.objective


def solve_full_2d(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    max_atoms_per_side: int = MAX_ATOMS_PER_SIDE,
) -> Planar2DPlan:
    """Exact planar optimum: both densities flattened to cell-center atoms.

    The flow matrix has (n_x*n_y)^2 entries; the default cap keeps grids at
    8x8 per axis, which the Python simplex handles comfortably.
    """
    n_src = f.grid_x.n_cells * f.grid_y.n_cells
    n_tgt = f_tilde.grid_x.n_cells * f_tilde.grid_y.n_cells
    if n_src > max_atoms_per_side or n_tgt > max_atoms_per_side:
        raise SizeLimitError(
            f"grids give {n_src}x{n_tgt} flow variables; "
            f"limit is {max_atoms_per_side} atoms per side (about 8x8 cells)"
        )
    ps, ms = atoms_from_density_2d(f)
    pt, mt = atoms_from_density_2d(f_tilde)
    # renormalize away float drift so the instance passes balance validation
    cost = np.sum((ps[:, None, :] - pt[None, :, :]) ** 2, axis=2)
    instance = TransportInstance(ms / ms.sum(), mt / mt.sum(), cost)
    return Planar2DPlan(solve_lp(instance), ps, pt)
