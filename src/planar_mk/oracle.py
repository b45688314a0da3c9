"""Exact transportation LP used as ground truth at desk scale.

The solver is a self-contained transportation simplex on strongly feasible
spanning trees (Cunningham 1976; Ahuja, Magnanti & Orlin 1993, sec. 11.5),
started at the northwest corner and priced by block search. Pricing splits
the rows into blocks of about _BLOCK_ARCS arcs and scans them cyclically from
the block that gave the last entering arc; the arc entering is the most
negative in the first block with one below -_RC_TOL max(1, max C), ties going
to the smallest flat index (Grigoriadis 1986). Up to _BLOCK_ARCS arcs form one
block: Dantzig's rule. The simplex stops only after a full cycle of blocks,
every arc priced against one set of potentials. The basis tree, rooted at
row 0, is kept across pivots in flat per-node lists: neighbours, parent,
depth, dual potential (u_0 = 0; a node's potential is the cost of the arc to
its parent minus the parent's) and the flow on the arc to the parent (Ahuja,
Magnanti & Orlin 1993, ch. 11). The pivot cycle is the list of nodes met
climbing `parent` from both ends of the entering arc until they meet, at the
apex. The tree is strongly feasible: every column hangs from its parent row
by an arc of positive flow, so only arcs pointing to row 0 can be empty. The
start tree and its flows are the northwest corner's steps, each bringing in
one row or column hung from the other end of its arc by the mass shipped
there. With rows and columns of zero mass dropped (`solve_lp`) it is such a
tree, as its ties advance the row, and Cunningham's leaving rule keeps it
one: of the arcs at theta, the last met walking the cycle from the apex in
the entering arc's direction leaves. Flows stay >= 0 in floating point: a
corner step is the lesser of two nonnegative remainders, and a pivot takes
theta only from flows of at least theta. Any pivot that moves flow lowers
the objective, and one that moves none lowers the potential of every node
it re-hangs, rows' u and columns' -v alike, so no basis comes back and the
simplex cannot cycle, on the real masses. A pivot changes only the subtree
that the leaving arc cuts off from row 0: that subtree is re-hung breadth
first from the entering arc's end inside it, and along its stem, from that
end up to the leaving arc, each flow moves down one node. Parents, depths
and potentials do not depend on the walk order, so they match a walk of the
whole tree bit for bit. No external LP dependency: the final tree's flows
are the plan, and its potentials (u, v) are kept on the plan as a duality
certificate.
"""

from __future__ import annotations

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
_RC_TOL = 1e-11  # reduced-cost threshold for entering arcs, per unit of the largest cost
_BLOCK_ARCS = 1024  # arcs per pricing block, in whole rows


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
    """A transport plan on its instance; `solve_lp` also sets the dual potentials u, v.

    The potentials satisfy u_i + v_j = C_ij on the final basis and
    u_i + v_j <= C_ij elsewhere, to the reduced-cost tolerance 1e-11 max(1, max C),
    so together with a `duality_gap` near zero they certify the plan optimal.
    """

    flows: np.ndarray
    instance: TransportInstance
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    @property
    def objective(self) -> float:
        return float(np.sum(self.flows * self.instance.cost))

    def marginal_errors(self) -> tuple[float, float]:
        r = float(np.max(np.abs(self.flows.sum(axis=1) - self.instance.supply)))
        c = float(np.max(np.abs(self.flows.sum(axis=0) - self.instance.demand)))
        return r, c

    def duality_gap(self) -> float:
        """|u.a + v.b - objective|: the dual value's distance from the primal one."""
        return abs(float(self.u @ self.instance.supply + self.v @ self.instance.demand) - self.objective)


def _northwest_corner(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int, float]]:
    """The northwest-corner start tree on masses a, b: (node, parent, flow) for every node but row 0.

    Nodes 0..m-1 are rows, m..m+k-1 columns. The corner walks a staircase of
    arcs from (0, 0) to (m-1, k-1), shipping along each the lesser of its
    row's and column's remaining mass, a flow >= 0, then moving to the next
    row if the row is spent (ties too), else to the next column. Each step
    brings in a new row or column, hung from the other end of its arc, so
    the nodes come breadth first from row 0.
    """
    m, k = a.size, b.size
    ra, rb = a.tolist(), b.tolist()
    i = j = 0
    node, par = m, 0  # column 0 hangs from row 0
    tree = []
    while True:
        step = min(ra[i], rb[j])
        tree.append((node, par, step))
        if i == m - 1 and j == k - 1:
            return tree
        ra[i] -= step
        rb[j] -= step
        if ra[i] <= rb[j] and i < m - 1 or j == k - 1:
            i += 1
            node, par = i, m + j
        else:
            j += 1
            node, par = m + j, i


def _arc(node: int, par: int, m: int) -> tuple[int, int]:
    """The (row, column) arc joining a tree node to its parent."""
    return (node, par - m) if node < m else (par, node - m)


def _pivot(flow: list[float], up: list[int], down: list[int]) -> tuple[list[int], float]:
    """Push theta around the cycle; returns the leaving arc's stem, and theta.

    `up` and `down` list the nodes met climbing `parent` from the entering
    arc's column and row to the apex, each node for its arc to its parent.
    Signs alternate from + on the entering arc, so - on up[0], down[0] and
    every second node after them; theta is the least flow at a minus
    position. The arc leaving is Cunningham's: of those at theta, the last met
    walking the cycle from the apex in the entering arc's direction, down to
    the row, across the entering arc and up from the column. That is the last
    in `up`, or else the first in `down`. The stem is its side of the cycle,
    from the entering arc to the leaving one.
    """
    minus = up[::2] + down[::2]
    theta = min(flow[x] for x in minus)
    blocking = [t for t in range(0, len(up), 2) if flow[up[t]] == theta]
    if blocking:
        stem = up[: blocking[-1] + 1]
    else:
        stem = down[: next(t for t in range(0, len(down), 2) if flow[down[t]] == theta) + 1]
    for x in minus:
        flow[x] -= theta
    for x in up[1::2] + down[1::2]:
        flow[x] += theta
    return stem, theta


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

    Rows and columns of zero mass carry no flow, so the simplex runs without
    them, which keeps its start strongly feasible. They then take the largest
    potentials that keep every arc's reduced cost >= 0: u_i = min_j (C_ij - v_j)
    over the other columns, then v_j = min_i (C_ij - u_i) over all rows. A plan
    whose marginals are off by more than 1e-10 raises RuntimeError.
    """
    a, b, cost = instance.supply, instance.demand, instance.cost
    rows, cols = a > 0, b > 0
    flows = np.zeros(cost.shape)
    u, v = np.zeros(a.size), np.zeros(b.size)
    flows[np.ix_(rows, cols)], u[rows], v[cols] = _simplex(a[rows], b[cols], cost[np.ix_(rows, cols)])
    u[~rows] = np.min(cost[~rows][:, cols] - v[cols], axis=1)
    v[~cols] = np.min(cost[:, ~cols] - u[:, None], axis=0)
    plan = TransportPlan(flows, instance, u, v)
    if max(plan.marginal_errors()) > 1e-10:
        raise RuntimeError(f"plan marginals off by {max(plan.marginal_errors())}")
    return plan


def _simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The simplex on positive masses a, b; returns the plan's flows and its potentials u, v."""
    m, k = cost.shape
    adj: list[list[int]] = [[] for _ in range(m + k)]
    parent, flow = [0] * (m + k), [0.0] * (m + k)  # row 0's flow is never read
    for node, par, step in _northwest_corner(a, b):
        adj[node].append(par)
        adj[par].append(node)
        parent[node], flow[node] = par, step

    # hang the tree from row 0: depths and potentials u_i + v_j = C_ij with u_0 = 0
    cost_rows = cost.tolist()
    depth, pot = [0] * (m + k), [0.0] * (m + k)
    for node in adj[0]:
        _rehang(adj, node, 0, parent, depth, pot, cost_rows, m)

    tol = _RC_TOL * max(1.0, float(cost.max()))  # potentials carry roundoff in proportion to the costs
    rc = np.empty_like(cost)  # reduced costs, rewritten in place, a block at a time
    pot_arr = np.empty(m + k)  # the potentials, copied in for each pricing
    rows = max(1, _BLOCK_ARCS // k)  # rows per pricing block
    blocks = [(r, min(r + rows, m)) for r in range(0, m, rows)]
    blk = 0  # the block that gave the last entering arc
    for _ in range(200 * (m + k) * max(m, k)):
        pot_arr[:] = pot
        for blk in (*range(blk, len(blocks)), *range(blk)):
            r0, r1 = blocks[blk]
            seg = rc[r0:r1]
            np.subtract(cost[r0:r1], pot_arr[r0:r1, None], out=seg)
            seg -= pot_arr[m:]
            enter = r0 * k + int(seg.argmin())  # most negative in the block, ties to the smallest index
            if rc.item(enter) < -tol:
                break
        else:  # a full cycle of blocks priced every arc against these potentials
            break
        ei, ej = divmod(enter, k)
        if parent[m + ej] == ei or parent[ei] == m + ej:  # a basis arc: its reduced cost is roundoff
            raise RuntimeError(f"basis arc ({ei}, {ej}) priced at {rc.item(enter)}; roundoff beyond the tolerance")

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
        stem, theta = _pivot(flow, up, down)

        # the leaving arc cut off the entering arc's end where the stem starts;
        # that side now hangs from the entering arc
        node = stem[0]
        par = ei if node == m + ej else m + ej
        i, j = sorted((stem[-1], parent[stem[-1]]))
        adj[i].remove(j)
        adj[j].remove(i)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        # the stem from node up to the leaving arc turns over: each stem node
        # now hangs from the one below it, by that node's old arc and flow
        for x in stem:
            flow[x], theta = theta, flow[x]
        _rehang(adj, node, par, parent, depth, pot, cost_rows, m)
    else:
        raise RuntimeError("transportation simplex failed to converge")

    flow_mat = np.zeros((m, k))
    for x in range(1, m + k):
        flow_mat[_arc(x, parent[x], m)] = flow[x]
    return flow_mat, np.array(pot[:m]), np.array(pot[m:])


def comonotone_plan_1d(x: np.ndarray, a: np.ndarray, y: np.ndarray, b: np.ndarray) -> TransportPlan:
    """Monotone-rearrangement (quantile) plan for 1-D atoms, squared distance.

    The northwest corner on the atoms stably sorted by position, which is
    the monotone plan and optimal for quadratic cost (Hoffman 1963); the LP
    cross-checks it. Positions must be finite, and so must their squared
    distances; the masses pass the checks of a `TransportInstance`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or np.shape(a) != x.shape or y.ndim != 1 or np.shape(b) != y.shape:
        raise ValueError("atom positions and masses must be 1-D arrays of one length per side")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        cost = (x[:, None] - y[None, :]) ** 2
    if not np.isfinite(cost).all():
        raise ValueError(f"atom positions must be finite, and so must their squared distances: x in [{x.min()}, "
                         f"{x.max()}], y in [{y.min()}, {y.max()}]")
    instance = TransportInstance(a, b, cost)
    ox = np.argsort(x, kind="stable")
    oy = np.argsort(y, kind="stable")
    flows = np.zeros(instance.cost.shape)
    for node, par, step in _northwest_corner(instance.supply[ox], instance.demand[oy]):
        i, j = _arc(node, par, x.size)
        flows[ox[i], oy[j]] = step
    return TransportPlan(flows, instance)


def atoms_from_density_2d(d: DiscreteDensity2D) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center atoms (N, 2) and their masses (N,), row-major order."""
    cx, cy = d.grid_x.centers, d.grid_y.centers
    points = np.column_stack([np.repeat(cx, cy.size), np.tile(cy, cx.size)])
    masses = d.cell_masses.ravel()
    return points, masses


def solve_full_2d(f: DiscreteDensity2D, f_tilde: DiscreteDensity2D) -> TransportPlan:
    """Exact planar optimum: both densities flattened to cell-center atoms.

    The flow matrix has (n_x*n_y)^2 entries; the MAX_ATOMS_PER_SIDE cap keeps
    grids at 16x16 per axis, where the simplex runs 628-3170 pivots in
    0.02-0.2 s on one core.
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
    return solve_lp(TransportInstance(ms / ms.sum(), mt / mt.sum(), cost))
