"""Exact transportation LP used as ground truth at desk scale.

The solver is a self-contained transportation simplex (northwest-corner
start, block-search pricing, lexicographic supply perturbation against
degeneracy). Pricing splits the rows into blocks of about _BLOCK_ARCS arcs
and scans them cyclically from the block that gave the last entering arc;
the arc entering is the most negative in the first block with one below
-_RC_TOL, ties going to the smallest flat index (Grigoriadis 1986). Up to
_BLOCK_ARCS arcs form one block: Dantzig's rule. The simplex stops only after
a full cycle of blocks, every arc priced against one set of potentials. The
perturbation, not the pricing rule, is what prevents cycling: it keeps every
basis flow at least the perturbation size away from zero, so each pivot on
any arc of negative reduced cost moves a positive amount of flow and
strictly lowers the perturbed objective. The basis tree, rooted at row 0, is
kept across pivots in flat per-node lists: neighbours, parent, depth, dual
potential (u_0 = 0; a node's potential is the cost of the arc to its parent
minus the parent's) and the flow on the arc to the parent (Ahuja, Magnanti &
Orlin 1993, ch. 11). The pivot cycle is the list of nodes met climbing
`parent` from both ends of the entering arc until they meet; the flows at
its minus positions give theta and the leaving arc, the first minimum in
cycle order. A pivot changes only the subtree that the leaving arc cuts off
from row 0: that subtree is re-hung breadth first from the entering arc's end
inside it, and along its stem, from that end up to the leaving arc, each flow
moves down one node. Parents, depths and potentials do not depend on the walk
order, so they match a walk of the whole tree bit for bit. No external LP
dependency: flows are recomputed on the final basis, walked in its arcs'
order, with the unperturbed masses, and the final potentials (u, v) are kept
on the plan as a duality certificate. Where floor-level masses sit below the
perturbation's total, the final basis can be infeasible for the real masses;
the LP is then solved once more with a smaller perturbation (`solve_lp`).
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
_BLOCK_ARCS = 1024  # arcs per pricing block, in whole rows
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
    ra, rb = a.tolist(), b.tolist()
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


def _tree_flows(order: list[int], parent: list[int], a: np.ndarray, b: np.ndarray) -> list[float]:
    """Each node's flow on its arc to its parent, on the basis tree balancing supplies a against demands b."""
    m = a.size
    bal = a.tolist() + (-b).tolist()  # net outflow required at each node
    flow = [0.0] * len(bal)  # row 0's entry is never read
    for node in reversed(order[1:]):  # children first: ship the subtree balance to the parent
        flow[node] = bal[node] if node < m else -bal[node]
        bal[parent[node]] += bal[node]
    return flow


def _pivot(flow: list[float], cycle: list[int]) -> tuple[int, float]:
    """Push theta around the cycle; returns the leaving node's position in it, and theta.

    `cycle` lists, in cycle order, the nodes whose arcs to their parents close
    the entering arc into a cycle. Signs alternate, + on the entering arc and
    so - on cycle[0]; theta is the least flow at a minus position, and the
    first node there that carries it leaves.
    """
    minus = [flow[x] for x in cycle[::2]]
    theta = min(minus)
    for x in cycle[::2]:
        flow[x] -= theta
    for x in cycle[1::2]:
        flow[x] += theta
    return 2 * minus.index(theta), theta


def _rehang(
    adj: list[list[int]], node: int, par: int, parent: list[int], depth: list[int], pot: list[float],
    cost_rows: list[list[float]], m: int,
) -> None:
    """Hang node's subtree from par, breadth first, in place.

    Each node of the subtree gets its parent, its depth and its potential
    cost(arc to parent) - pot[parent], the recurrence of a whole-tree walk.
    """
    parent[node] = par
    queue = [node]
    for x in queue:  # grows while it is read: a FIFO queue
        px = parent[x]
        depth[x] = depth[px] + 1
        pot[x] = (cost_rows[x][px - m] if x < m else cost_rows[px][x - m]) - pot[px]
        for nb in adj[x]:
            if nb != px:
                parent[nb] = x
                queue.append(nb)


def solve_lp(instance: TransportInstance) -> TransportPlan:
    """Optimal transport plan by transportation simplex, exact to roundoff.

    A perturbation whose total outweighs the smallest masses can end on a basis
    that the real masses make infeasible; clipping its negative flows, each at
    most that total, leaves a marginal error or a duality gap. So a plan with
    either above 1e-10 is solved once more with a smaller perturbation, totalling
    at most half the smallest positive mass and 1e-11 over the cost scale. Of the
    plans whose marginals pass, the one with the smaller gap is returned, the
    first on a tie; if neither passes, RuntimeError.
    """
    a0, b0 = instance.supply, instance.demand
    plans = [_simplex(instance, _PERTURB)]
    if max(plans[0].marginal_errors(a0, b0)) > 1e-10 or plans[0].duality_gap(a0, b0) > 1e-10:
        m = a0.size
        masses = np.concatenate([a0, b0])
        total = min(masses[masses > 0].min() / 2, 1e-11 / max(1.0, float(instance.cost.max())))
        eps = total / (m * (m + 1) / 2)
        if eps < _PERTURB:  # a larger one would move the bulk masses further
            try:
                plans.append(_simplex(instance, eps))
            except RuntimeError:
                pass
    passed = [p for p in plans if max(p.marginal_errors(a0, b0)) <= 1e-10]
    if not passed:
        raise RuntimeError(f"plan marginals off by {max(plans[0].marginal_errors(a0, b0))}")
    return min(passed, key=lambda p: p.duality_gap(a0, b0))


def _simplex(instance: TransportInstance, eps: float) -> TransportPlan:
    """The simplex with supply i perturbed by eps (i+1); flows are recomputed without it."""
    a0, b0, cost = instance.supply, instance.demand, instance.cost
    m, k = cost.shape
    # lexicographic perturbation removes degenerate ties; undone at the end
    a = a0 + eps * (np.arange(m) + 1)
    b = b0.copy()
    b[-1] += eps * (m * (m + 1)) / 2

    arcs = _northwest_corner(a, b)
    if len(arcs) != m + k - 1:
        raise RuntimeError(f"northwest-corner basis has {len(arcs)} arcs, expected {m + k - 1}")
    order, parent, adj = _walk(arcs, m, k)
    flow = _tree_flows(order, parent, a, b)
    # the basis arcs, children first, in the order the final recompute walks them
    basis = dict.fromkeys(_arc(x, parent[x], m) for x in reversed(order[1:]))

    # hang the tree from row 0: parents, depths and potentials u_i + v_j = C_ij
    # with u_0 = 0, rows then columns
    cost_rows = cost.tolist()
    depth = [0] * (m + k)
    pot = [0.0] * (m + k)
    for node in adj[0]:
        _rehang(adj, node, 0, parent, depth, pot, cost_rows, m)

    rc = np.empty_like(cost)  # reduced costs, rewritten in place, a block at a time
    pot_arr = np.empty(m + k)  # the potentials, copied in for each pricing
    rows = max(1, _BLOCK_ARCS // k)  # rows per pricing block
    blocks = [(r, min(r + rows, m)) for r in range(0, m, rows)]
    blk = 0  # the block that gave the last entering arc
    for pivots in range(200 * (m + k) * max(m, k)):
        pot_arr[:] = pot
        for blk in (*range(blk, len(blocks)), *range(blk)):
            r0, r1 = blocks[blk]
            seg = rc[r0:r1]
            np.subtract(cost[r0:r1], pot_arr[r0:r1, None], out=seg)
            seg -= pot_arr[m:]
            enter = r0 * k + int(seg.argmin())  # most negative in the block, ties to the smallest index
            if rc.item(enter) < -_RC_TOL:
                break
        else:  # a full cycle of blocks priced every arc against these potentials
            break
        ei, ej = divmod(enter, k)
        if (ei, ej) in basis:  # its reduced cost is roundoff: costs too large for _RC_TOL
            raise RuntimeError(f"basis arc ({ei}, {ej}) priced at {rc.item(enter)}; costs too large for the LP")

        # unique cycle: entering arc + tree path (each node for its arc to its
        # parent) from its column back to its row, climbing both ends to meet
        up, down = [], []
        x, y = m + ej, ei
        while x != y:
            if depth[x] >= depth[y]:
                up.append(x)
                x = parent[x]
            else:
                down.append(y)
                y = parent[y]
        cycle = up + down[::-1]
        pos, theta = _pivot(flow, cycle)

        # the leaving arc cut off the entering arc's column exactly when it lay
        # on the column's climb; that side now hangs from the entering arc
        if pos < len(up):
            node, par, stem = m + ej, ei, up[: pos + 1]
        else:
            node, par, stem = ei, m + ej, down[: len(cycle) - pos]
        i, j = sorted((stem[-1], parent[stem[-1]]))
        adj[i].remove(j)
        adj[j].remove(i)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        del basis[i, j - m]
        basis[ei, ej] = None
        # the stem from node up to the leaving arc turns over: each stem node
        # now hangs from the one below it, by that node's old arc and flow
        for x in stem:
            flow[x], theta = theta, flow[x]
        _rehang(adj, node, par, parent, depth, pot, cost_rows, m)
    else:
        raise RuntimeError("transportation simplex failed to converge")

    # drop the perturbation: recompute flows on the optimal basis. The
    # recompute's sums run in walk order, so a basis that moved is walked in
    # its arcs' order.
    if pivots:
        order, parent, _ = _walk(basis, m, k)
    final = _tree_flows(order, parent, a0, b0)
    flow_mat = np.zeros((m, k))
    for x in order[1:]:
        flow_mat[_arc(x, parent[x], m)] = max(final[x], 0.0)  # basis flows are >= -O(perturbation)
    objective = float(np.sum(flow_mat * cost))
    return TransportPlan(flow_mat, objective, np.array(pot[:m]), np.array(pot[m:]))


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
    grids at 16x16 per axis, where the simplex runs 775-3170 pivots in
    0.03-0.16 s on one core (about twice that when floor-level masses need a re-solve).
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
