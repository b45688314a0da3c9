"""Exact transportation LP used as ground truth at desk scale.

The solver is a self-contained transportation simplex (northwest-corner
start, Dantzig pricing, lexicographic supply perturbation against
degeneracy). The entering arc is the one with the most negative reduced cost,
ties going to the smallest flat index. The perturbation, not the pricing rule,
is what prevents cycling: it keeps every basis flow at least the perturbation
size away from zero, so each pivot moves a positive amount of flow and
strictly lowers the perturbed objective. The basis tree, rooted at row 0, is
kept across pivots: neighbour lists and each node's parent, arc to the
parent, depth and dual potential (u_0 = 0; a node's potential is the cost of
the arc to its parent minus the parent's). The pivot cycle climbs `parent`
from both ends of the entering arc until they meet, reading each node's kept
arc. A pivot changes only the subtree that the leaving arc cuts off from row
0, so only that subtree is re-hung, breadth first from the entering arc's end
inside it (Ahuja, Magnanti & Orlin 1993, ch. 11). Parents, arcs, depths and
potentials do not depend on the walk order, so they match a walk of the
whole tree bit for bit. Each pivot reads the potentials into one array for
pricing, and one pass over the cycle's minus arcs gives both theta and the
leaving arc. The arc flows come from a
whole-tree walk of the start and the final basis (each node ships its
subtree's balance to its parent, leaves first). No external LP dependency:
flows are recomputed on the final basis tree with the original unperturbed
masses, and the final potentials (u, v) are kept on the plan as a duality
certificate.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteDensity2D


class UnbalancedInstanceError(ValueError):
    pass


class SizeLimitError(ValueError):
    pass


# Atoms per side the full planar solve accepts: grids of at most 16x16 per
# axis (256 atoms per side).
MAX_ATOMS_PER_SIDE = 256

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
        if not all(np.isfinite(x).all() for x in (supply, demand, cost)):
            raise ValueError("supply, demand and cost must be finite")
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
    """A transport plan; `solve_lp` also sets the dual potentials u, v.

    The potentials satisfy u_i + v_j = C_ij on the final basis and
    u_i + v_j <= C_ij elsewhere (to the reduced-cost tolerance), so together
    with a `duality_gap` near zero they certify the plan optimal.
    """

    flows: np.ndarray
    objective: float
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    def marginal_errors(self, supply: np.ndarray, demand: np.ndarray) -> tuple[float, float]:
        r = float(np.max(np.abs(self.flows.sum(axis=1) - supply)))
        c = float(np.max(np.abs(self.flows.sum(axis=0) - demand)))
        return r, c

    def duality_gap(self, supply: np.ndarray, demand: np.ndarray) -> float:
        """|u.a + v.b - objective|: the dual value's distance from the primal one."""
        return abs(float(self.u @ supply + self.v @ demand) - self.objective)


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


def _walk(arcs: Iterable[tuple[int, int]], m: int, k: int) -> tuple[list[int], list[int], list[list[int]]]:
    """Breadth-first walk of the basis tree from row 0.

    Nodes 0..m-1 are rows, m..m+k-1 columns, and each arc (i, j) joins row i
    to column j; neighbours are listed, and visited, in the order the arcs
    come. Returns the visit order, each node's parent (row 0 is its own) and
    the neighbour lists.
    """
    adj: list[list[int]] = [[] for _ in range(m + k)]
    for i, j in arcs:
        adj[i].append(m + j)
        adj[m + j].append(i)
    order = [0]
    parent = [0] * (m + k)
    seen = [True] + [False] * (m + k - 1)
    for node in order:  # grows while it is read: a FIFO queue
        for nb in adj[node]:
            if not seen[nb]:
                seen[nb] = True
                parent[nb] = node
                order.append(nb)
    if len(order) != m + k:
        raise RuntimeError(f"basis spans {len(order)} of {m + k} nodes")
    return order, parent, adj


def _arc(node: int, par: int, m: int) -> tuple[int, int]:
    """The (row, column) arc joining a tree node to its parent."""
    return (node, par - m) if node < m else (par, node - m)


def _tree_flows(order: list[int], parent: list[int], a: np.ndarray, b: np.ndarray) -> dict[tuple[int, int], float]:
    """Unique arc flows on a basis tree balancing supplies a against demands b."""
    m = a.size
    bal = a.tolist() + (-b).tolist()  # net outflow required at each node
    flows: dict[tuple[int, int], float] = {}
    for node in reversed(order[1:]):  # children first: ship the subtree balance to the parent
        par = parent[node]
        flows[_arc(node, par, m)] = bal[node] if node < m else -bal[node]
        bal[par] += bal[node]
    return flows


def _pivot(flows: dict[tuple[int, int], float], cycle_arcs: list[tuple[int, int]]) -> tuple[int, int]:
    """Push theta around the cycle, entering arc first; returns the leaving arc.

    Signs alternate along the cycle starting with + on the entering arc; theta
    is the least flow on a minus arc, and the first minus arc that carries it
    leaves the basis. One pass over the minus arcs finds both.
    """
    minus_arcs = cycle_arcs[1::2]
    leave = minus_arcs[0]
    theta = flows[leave]
    for arc in minus_arcs:
        flow = flows[arc]
        if flow < theta:
            theta, leave = flow, arc
    flows[cycle_arcs[0]] = theta
    for arc in minus_arcs:
        flows[arc] -= theta
    for arc in cycle_arcs[2::2]:
        flows[arc] += theta
    del flows[leave]
    return leave


def _rehang(
    adj: list[list[int]], node: int, par: int, parent: list[int], parent_arc: list[tuple[int, int]],
    depth: list[int], pot: list[float], cost_rows: list[list[float]], m: int,
) -> None:
    """Hang node's subtree from par, breadth first, in place.

    Each node of the subtree gets its parent, the arc to it (`_arc`), its
    depth and its potential cost(arc to parent) - pot[parent], the
    recurrence of a whole-tree walk.
    """
    parent[node] = par
    queue = [node]
    for x in queue:  # grows while it is read: a FIFO queue
        px = parent[x]
        i, j = arc = (x, px - m) if x < m else (px, x - m)
        parent_arc[x] = arc
        depth[x] = depth[px] + 1
        pot[x] = cost_rows[i][j] - pot[px]
        for nb in adj[x]:
            if nb != px:
                parent[nb] = x
                queue.append(nb)


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
    order, parent, adj = _walk(arcs, m, k)
    flows = _tree_flows(order, parent, a, b)  # its keys are the basis

    # hang the tree from row 0: parents, depths and potentials u_i + v_j = C_ij
    # with u_0 = 0, rows then columns
    cost_rows = cost.tolist()
    parent_arc: list[tuple[int, int]] = [(0, 0)] * (m + k)  # row 0's entry is never read
    depth = [0] * (m + k)
    pot = [0.0] * (m + k)
    for node in adj[0]:
        _rehang(adj, node, 0, parent, parent_arc, depth, pot, cost_rows, m)

    rc = np.empty_like(cost)  # reduced costs, rewritten in place at each pivot
    for pivots in range(200 * (m + k) * max(m, k)):
        pot_arr = np.array(pot)
        np.subtract(cost, pot_arr[:m, None], out=rc)
        rc -= pot_arr[m:]
        enter = int(rc.argmin())  # Dantzig: most negative, ties to the smallest index
        if rc.flat[enter] >= -_RC_TOL:
            break
        ei, ej = divmod(enter, k)

        # unique cycle: entering arc + tree path from its column back to its
        # row, found by climbing both ends until they meet
        up, down = [], []
        x, y = m + ej, ei
        while x != y:
            if depth[x] >= depth[y]:
                up.append(parent_arc[x])
                x = parent[x]
            else:
                down.append(parent_arc[y])
                y = parent[y]
        leave = _pivot(flows, [(ei, ej), *up, *reversed(down)])

        li, lj = leave
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        # the leaving arc cut off the entering arc's column exactly when it lay
        # on the column's climb; that side now hangs from the entering arc
        if leave in up:
            _rehang(adj, m + ej, ei, parent, parent_arc, depth, pot, cost_rows, m)
        else:
            _rehang(adj, ei, m + ej, parent, parent_arc, depth, pot, cost_rows, m)
    else:
        raise RuntimeError("transportation simplex failed to converge")

    # drop the perturbation: recompute flows on the optimal basis. The
    # recompute's sums run in walk order, so a basis that moved is walked as
    # the flow dict lists it.
    if pivots:
        order, parent, _ = _walk(flows, m, k)
    final = _tree_flows(order, parent, a0, b0)
    flow_mat = np.zeros((m, k))
    for (i, j), f in final.items():
        flow_mat[i, j] = max(f, 0.0)  # basis flows are >= -O(perturbation)
    objective = float(np.sum(flow_mat * cost))
    plan = TransportPlan(flow_mat, objective, np.array(pot[:m]), np.array(pot[m:]))
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
    if x.ndim != 1 or a.shape != x.shape or y.ndim != 1 or b.shape != y.shape:
        raise ValueError("atom positions and masses must be 1-D arrays of one length per side")
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
    instance: TransportInstance

    @property
    def objective(self) -> float:
        return self.plan.objective


def solve_full_2d(f: DiscreteDensity2D, f_tilde: DiscreteDensity2D) -> Planar2DPlan:
    """Exact planar optimum: both densities flattened to cell-center atoms.

    The flow matrix has (n_x*n_y)^2 entries; the MAX_ATOMS_PER_SIDE cap keeps
    grids at 16x16 per axis, where the simplex runs 1000-1800 pivots in
    0.2-0.6 s on one core.
    """
    n_src = f.grid_x.n_cells * f.grid_y.n_cells
    n_tgt = f_tilde.grid_x.n_cells * f_tilde.grid_y.n_cells
    if n_src > MAX_ATOMS_PER_SIDE or n_tgt > MAX_ATOMS_PER_SIDE:
        raise SizeLimitError(
            f"grids give {n_src}x{n_tgt} flow variables; "
            f"limit is {MAX_ATOMS_PER_SIDE} atoms per side (about 16x16 cells)"
        )
    ps, ms = atoms_from_density_2d(f)
    pt, mt = atoms_from_density_2d(f_tilde)
    cost = np.sum((ps[:, None, :] - pt[None, :, :]) ** 2, axis=2)
    # renormalize away float drift so the instance passes balance validation
    instance = TransportInstance(ms / ms.sum(), mt / mt.sum(), cost)
    return Planar2DPlan(solve_lp(instance), instance)
