import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import narrow_gaussian_pair, shift_pair
from planar_mk import oracle
from planar_mk.instances import smooth_random_density_2d
from planar_mk.measures import DiscreteDensity1D, DiscreteDensity2D, Grid1D
from planar_mk.oracle import (
    SizeLimitError,
    TransportInstance,
    TransportPlan,
    UnbalancedInstanceError,
    atoms_from_density_2d,
    comonotone_plan_1d,
    solve_full_2d,
    solve_lp,
)


def random_instance(rng, m, k, tied=False):
    a = rng.dirichlet(np.ones(m))
    b = rng.dirichlet(np.ones(k))
    if tied:  # integer positions: many equal costs, so many optimal plans
        x = rng.integers(0, 4, m).astype(float)
        y = rng.integers(0, 4, k).astype(float)
    else:
        x = rng.uniform(-2.0, 2.0, m)
        y = rng.uniform(-2.0, 2.0, k)
    return x, a / a.sum(), y, b / b.sum()


# 33 to 48 atoms per side: 1089 to 2304 arcs, which pricing scans in two or three blocks
MULTI_BLOCK_SIDES = {"min_side": 33, "max_side": 48}

# the benchmark's compare8 cases: (seed, (sx, sy)) on 8x8 grids
COMPARE8_CASES = ((1, (1, 0)), (2, (0, 1)), (3, (1, 1)), (4, (2, 1)), (5, (1, 2)), (6, (2, 2)))


def compare8_pairs():
    for seed, (sx, sy) in COMPARE8_CASES:
        yield shift_pair(seed, sx, sy, 8)


def tied_instances(seed, count, max_side, min_side=1):
    """Random instances on integer atom positions (many tied costs); every
    other one has uniform masses, so degenerate bases are common."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m, k = int(rng.integers(min_side, max_side + 1)), int(rng.integers(min_side, max_side + 1))
        x, a, y, b = random_instance(rng, m, k, tied=True)
        if trial % 2:
            a, b = np.full(m, 1.0 / m), np.full(k, 1.0 / k)
        yield TransportInstance(a, b, (x[:, None] - y[None, :]) ** 2)


def assert_certified(plan):
    """Dual feasibility and strong duality, to tolerances scaled with the costs: a proof of optimality."""
    cost = plan.instance.cost
    scale = max(1.0, float(cost.max()))
    assert np.max(plan.u[:, None] + plan.v[None, :] - cost) <= oracle._RC_TOL * scale
    assert plan.duality_gap() <= 1e-10 * scale


def assert_same_plan(plan, ref):
    """Equal bits in the flows, the objective and both potentials."""
    assert np.array_equal(plan.flows, ref.flows)
    assert plan.objective == ref.objective
    assert np.array_equal(plan.u, ref.u) and np.array_equal(plan.v, ref.v)


def spy_pivots(monkeypatch):
    """Record every pivot's theta: the flow `_pivot` puts on the entering arc."""
    thetas = []
    pivot = oracle._pivot

    def spy(flow, up, down):
        stem, theta = pivot(flow, up, down)
        thetas.append(theta)
        return stem, theta

    monkeypatch.setattr(oracle, "_pivot", spy)
    return thetas


def whole_tree_walk(arcs, m, k):
    """Breadth-first walk of the tree on (row, column) arcs from row 0: visit order, parents and depths.

    Nodes 0..m-1 are rows, m..m+k-1 columns; neighbours are visited in the
    order the arcs come.
    """
    adj = [[] for _ in range(m + k)]
    for i, j in arcs:
        adj[i].append(m + j)
        adj[m + j].append(i)
    order, parent, depth = [0], [0] * (m + k), [0] + [-1] * (m + k - 1)
    for node in order:
        for nb in adj[node]:
            if depth[nb] < 0:
                parent[nb], depth[nb] = node, depth[node] + 1
                order.append(nb)
    assert len(order) == m + k
    return order, parent, depth


def reference_solve_lp(instance):
    """The transportation simplex with a whole-tree walk after every pivot.

    A self-contained copy with the zero-mass handling, start, block-search
    pricing, cycle and leaving rule of `solve_lp`, but which walks the whole
    basis tree and prices every arc at each pivot: the reference that the
    re-hung subtrees must match bit for bit.
    """
    keep_rows, keep_cols = np.flatnonzero(instance.supply > 0), np.flatnonzero(instance.demand > 0)
    a, b = instance.supply[keep_rows], instance.demand[keep_cols]
    cost = instance.cost[np.ix_(keep_rows, keep_cols)]
    m, k = cost.shape

    def arc(node, par):
        return (node, par - m) if node < m else (par, node - m)

    ra, rb = a.tolist(), b.tolist()
    i = j = 0
    flows = {}
    while True:  # northwest corner: each step is its arc's flow
        step = min(ra[i], rb[j])
        flows[(i, j)] = step
        if i == m - 1 and j == k - 1:
            break
        ra[i] -= step
        rb[j] -= step
        if ra[i] <= rb[j] and i < m - 1 or j == k - 1:
            i += 1
        else:
            j += 1
    order, parent, depth = whole_tree_walk(flows, m, k)
    cost_rows = cost.tolist()
    tol = oracle._RC_TOL * max(1.0, float(cost.max()))
    rows = max(1, oracle._BLOCK_ARCS // k)  # blocks of whole rows
    n_blocks = -(-m // rows)
    last = 0
    for _ in range(200 * (m + k) * max(m, k)):
        pot = [0.0] * (m + k)
        for node in order[1:]:
            i, j = arc(node, parent[node])
            pot[node] = cost_rows[i][j] - pot[parent[node]]
        rc = cost - np.array(pot[:m])[:, None] - np.array(pot[m:])[None, :]
        # the first block from the last entering arc's on with an arc below -tol
        for b in [(last + step) % n_blocks for step in range(n_blocks)]:
            enter = b * rows * k + int(np.argmin(rc[b * rows : (b + 1) * rows]))
            if rc.flat[enter] < -tol:
                last = b
                break
        else:
            break
        ei, ej = divmod(enter, k)
        assert (ei, ej) not in flows
        up, down = [], []
        x, y = m + ej, ei
        while x != y:
            if depth[x] >= depth[y]:
                up.append(arc(x, parent[x]))
                x = parent[x]
            else:
                down.append(arc(y, parent[y]))
                y = parent[y]
        minus_arcs, plus_arcs = up[::2] + down[::2], up[1::2] + down[1::2]
        theta = min(flows[c] for c in minus_arcs)
        # Cunningham: the last minus arc at theta on the walk from the apex in
        # the entering arc's direction, down to its row and up from its column
        apex_walk = [*reversed(down), *up]
        leave = [c for c in apex_walk if c in minus_arcs and flows[c] == theta][-1]
        flows[(ei, ej)] = theta
        for c in minus_arcs:
            flows[c] -= theta
        for c in plus_arcs:
            flows[c] += theta
        del flows[leave]
        order, parent, depth = whole_tree_walk(flows, m, k)
    else:
        raise AssertionError("reference simplex hit its iteration cap")
    flow_mat = np.zeros(instance.cost.shape)
    for (i, j), f in flows.items():
        flow_mat[keep_rows[i], keep_cols[j]] = f
    u, v = np.zeros(instance.supply.size), np.zeros(instance.demand.size)
    u[keep_rows], v[keep_cols] = pot[:m], pot[m:]
    for i in np.flatnonzero(instance.supply == 0):
        u[i] = min(instance.cost[i, j] - v[j] for j in keep_cols)
    for j in np.flatnonzero(instance.demand == 0):
        v[j] = min(instance.cost[:, j] - u)
    return TransportPlan(flow_mat, instance, u, v)


def random_instances(seed, count, max_side, min_side=1):
    """Random instances, tied and untied in turn, with min_side to max_side atoms per side."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m, k = int(rng.integers(min_side, max_side + 1)), int(rng.integers(min_side, max_side + 1))
        x, a, y, b = random_instance(rng, m, k, tied=trial % 2 == 1)
        yield TransportInstance(a, b, (x[:, None] - y[None, :]) ** 2)


@st.composite
def lp_instances(draw, max_side=12, positive_mass=st.floats(1e-3, 1.0)):
    """1 to max_side atoms per side on a line; tied draws put them on integers 0..3.

    Each mass is 0 or a draw of positive_mass, before both sides are normalized.
    """
    m, k = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    if draw(st.booleans()):
        x, y = (np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float) for n in (m, k))
    else:
        x, y = (draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0))) for n in (m, k))
    mass = st.one_of(st.just(0.0), positive_mass)
    a, b = (draw(arrays(np.float64, n, elements=mass)) for n in (m, k))
    a[0] = max(a[0], 1e-3)
    b[0] = max(b[0], 1e-3)
    return TransportInstance(a / a.sum(), b / b.sum(), (x[:, None] - y[None, :]) ** 2)


class TestSolveLp:
    def test_single_atom(self):
        plan = solve_lp(TransportInstance([1.0], [1.0], [[3.7]]))
        assert plan.objective == pytest.approx(3.7, abs=1e-12)
        assert plan.flows[0, 0] == pytest.approx(1.0)

    def test_shifted_uniform_triple(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 3.0])
        m = np.full(3, 1 / 3)
        plan = solve_lp(TransportInstance(m, m, (x[:, None] - y[None, :]) ** 2))
        assert plan.objective == pytest.approx(1.0, abs=1e-10)
        # optimal plan is the shifted diagonal
        assert np.allclose(plan.flows, np.diag(m), atol=1e-10)

    def test_identity_instance(self):
        x = np.array([0.0, 1.0])
        m = np.array([0.5, 0.5])
        plan = solve_lp(TransportInstance(m, m, (x[:, None] - x[None, :]) ** 2))
        assert plan.objective == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(plan.flows, np.diag(m), atol=1e-10)

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedInstanceError):
            TransportInstance([0.6, 0.6], [0.5, 0.5], np.ones((2, 2)))

    def test_basic_feasibility_bound(self):
        rng = np.random.default_rng(11)
        for tied in [False] * 20 + [True] * 20:
            m, k = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            x, a, y, b = random_instance(rng, m, k, tied)
            plan = solve_lp(TransportInstance(a, b, (x[:, None] - y[None, :]) ** 2))
            assert np.sum(plan.flows > 1e-14) <= m + k - 1
            r, c = plan.marginal_errors()
            assert max(r, c) < 1e-10

    @pytest.mark.parametrize("field", ["supply", "demand", "cost"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        parts = {"supply": np.array([0.5, 0.5]), "demand": np.array([0.5, 0.5]), "cost": np.ones((2, 2))}
        parts[field].flat[0] = bad
        with pytest.raises(ValueError, match="finite"):
            TransportInstance(**parts)

    def test_matches_highs(self):
        # HiGHS checks the pricing independently: 40 instances of up to 12
        # atoms per side in one pricing block, and 6 of 38 to 42 in two
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(14)
        for trial in range(46):
            lo, hi = (1, 12) if trial < 40 else (38, 42)
            m, k = int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))
            x, a, y, b = random_instance(rng, m, k, tied=trial % 2 == 1)
            cost = (x[:, None] - y[None, :]) ** 2
            rows = np.kron(np.eye(m), np.ones(k))  # sum_j p_ij = a_i
            cols = np.kron(np.ones(m), np.eye(k))  # sum_i p_ij = b_j
            ref = scipy_optimize.linprog(
                cost.ravel(), A_eq=np.vstack([rows, cols]), b_eq=np.concatenate([a, b]),
                bounds=(0, None), method="highs",
            )
            assert ref.status == 0
            assert solve_lp(TransportInstance(a, b, cost)).objective == pytest.approx(ref.fun, rel=0, abs=1e-12)

    def test_duality_certificate_on_compare8(self):
        for f, f_tilde in compare8_pairs():
            plan = solve_full_2d(f, f_tilde)
            assert_certified(plan)
            assert max(plan.marginal_errors()) <= 1e-13
            assert plan.duality_gap() <= 1e-13

    def test_duality_certificate_on_tied_instances(self):
        for instance in tied_instances(seed=15, count=200, max_side=12):
            assert_certified(solve_lp(instance))

    def test_tree_strongly_feasible_before_every_pivot(self, monkeypatch):
        # masses in 16ths, zeros among them, so every flow is exact: before
        # every pivot, each column hangs from its parent row by an arc of
        # positive flow. Only arcs pointing to row 0 may be empty, which is
        # what keeps degenerate pivots from cycling.
        pivot = oracle._pivot
        columns = []  # the columns of positive mass, which the simplex keeps
        checks = []

        def spy(flow, up, down):
            checks.append(min(flow[-columns[-1]:]) > 0.0)  # the columns' flows, the last k of m + k
            return pivot(flow, up, down)

        monkeypatch.setattr(oracle, "_pivot", spy)
        rng = np.random.default_rng(22)
        for _ in range(400):
            m, k = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            x, y = rng.integers(0, 4, m).astype(float), rng.integers(0, 4, k).astype(float)
            a, b = rng.multinomial(16, np.ones(m) / m) / 16, rng.multinomial(16, np.ones(k) / k) / 16
            columns.append(np.count_nonzero(b))
            plan = solve_lp(TransportInstance(a, b, (x[:, None] - y[None, :]) ** 2))
            assert max(plan.marginal_errors()) == 0.0
        assert len(checks) > 1000
        assert all(checks)

    def test_flows_nonnegative_before_every_pivot_on_float_masses(self, monkeypatch):
        # uniform masses 1/m, whose remainders round: each corner step is the
        # lesser of two nonnegative remainders and a pivot subtracts theta only
        # from flows of at least theta, so every flow, and so every theta,
        # stays >= 0 and each column's flow to its parent row stays positive
        pivot = oracle._pivot
        columns = []
        least, least_column = [], []

        def spy(flow, up, down):
            least.append(min(flow))
            least_column.append(min(flow[-columns[-1]:]))
            return pivot(flow, up, down)

        monkeypatch.setattr(oracle, "_pivot", spy)
        for instance in tied_instances(seed=18, count=30, **MULTI_BLOCK_SIDES):
            columns.append(instance.demand.size)
            solve_lp(instance)
        assert len(least) > 1000
        assert min(least) >= 0.0 and min(least_column) > 0.0

    @pytest.mark.parametrize(
        "instances",
        [
            lambda: tied_instances(seed=18, count=30, **MULTI_BLOCK_SIDES),
            lambda: random_instances(seed=19, count=30, **MULTI_BLOCK_SIDES),
        ],
        ids=["tied", "random"],
    )
    def test_multi_block_pricing_certifies(self, monkeypatch, instances):
        # pricing stops only after a full cycle of blocks finds no arc below
        # the reduced-cost tolerance, so every arc is priced against the final
        # potentials
        thetas = spy_pivots(monkeypatch)
        for instance in instances():
            assert instance.cost.size > oracle._BLOCK_ARCS
            assert_certified(solve_lp(instance))
        assert len(thetas) > 1000

    def test_pivot_budget_on_compare8(self, monkeypatch):
        # block-search pricing on strongly feasible trees takes 11-107 pivots per case
        thetas = spy_pivots(monkeypatch)
        pivots = []
        for f, f_tilde in compare8_pairs():
            before = len(thetas)
            solve_full_2d(f, f_tilde)
            pivots.append(len(thetas) - before)
        assert pivots == [107, 11, 65, 85, 49, 71]
        assert max(pivots) < 300

    def test_kept_parent_arcs_match_the_tree(self, monkeypatch):
        # the cycle climb and pricing read each node's kept parent, depth and
        # potential; after every pivot's re-hang they must be those of a fresh
        # walk of the basis arcs in the neighbour lists, and each node's arc
        # to its parent a basis arc
        rehang, pivot = oracle._rehang, oracle._pivot
        tree = {}
        checks = []

        def check():
            adj, parent, depth, pot, cost_rows, m = tree["lists"]
            basis = {(i, j - m) for i in range(m) for j in adj[i]}
            order, fresh_parent, fresh_depth = whole_tree_walk(basis, m, len(adj) - m)
            fresh_pot = [0.0] * len(adj)
            for x in order[1:]:
                i, j = oracle._arc(x, fresh_parent[x], m)
                fresh_pot[x] = cost_rows[i][j] - fresh_pot[fresh_parent[x]]
            checks.append(
                (parent, depth, pot) == (fresh_parent, fresh_depth, fresh_pot)
                and all(oracle._arc(x, parent[x], m) in basis for x in range(1, len(adj)))
            )

        def spy_rehang(adj, node, par, parent, depth, pot, cost_rows, m):
            tree["lists"] = adj, parent, depth, pot, cost_rows, m
            rehang(adj, node, par, parent, depth, pot, cost_rows, m)

        def spy_pivot(flow, up, down):
            check()  # the start's tree, or the previous pivot's re-hung one
            return pivot(flow, up, down)

        monkeypatch.setattr(oracle, "_rehang", spy_rehang)
        monkeypatch.setattr(oracle, "_pivot", spy_pivot)
        for instance in tied_instances(seed=16, count=300, max_side=12):
            solve_lp(instance)
            check()  # the last pivot's tree
        assert len(checks) > 1000
        assert all(checks)

    @pytest.mark.parametrize(
        "instances",
        [
            lambda: tied_instances(seed=16, count=300, max_side=12),
            lambda: random_instances(seed=17, count=200, max_side=29),
            lambda: tied_instances(seed=20, count=30, **MULTI_BLOCK_SIDES),
            lambda: random_instances(seed=21, count=30, **MULTI_BLOCK_SIDES),
        ],
        ids=["tied", "random", "tied_multi_block", "random_multi_block"],
    )
    def test_bit_identical_to_whole_tree_walks(self, instances):
        for instance in instances():
            assert_same_plan(solve_lp(instance), reference_solve_lp(instance))

    def test_bit_identical_to_whole_tree_walks_on_compare8(self):
        for f, f_tilde in compare8_pairs():
            plan = solve_full_2d(f, f_tilde)
            assert_same_plan(plan, reference_solve_lp(plan.instance))

    @settings(max_examples=200, deadline=None)
    @given(instance=lp_instances())
    def test_certificate_on_random_instances(self, instance):
        assert_certified(solve_lp(instance))

    @settings(max_examples=100, deadline=None)
    @given(instance=lp_instances(max_side=40, positive_mass=st.one_of(st.floats(1e-12, 1e-11), st.floats(1e-3, 1.0))))
    def test_certificate_with_floor_level_masses(self, instance):
        # floor-level masses of 1e-12 to 1e-11 among bulk ones: the simplex
        # runs on the real masses, so they cost no accuracy
        plan = solve_lp(instance)
        assert max(plan.marginal_errors()) <= 1e-13
        assert_certified(plan)

    def test_costs_scaled_1e5_certify_marginals_or_fail_fast(self):
        # the reduced-cost tolerance grows with the largest cost, so roundoff in
        # the potentials stays below it: at costs x1e5 every instance certifies
        for instance in random_instances(seed=5, count=100, max_side=8):
            a, b = instance.supply, instance.demand
            scaled = TransportInstance(a, b, instance.cost * 1e5)
            plan = solve_lp(scaled)
            assert max(plan.marginal_errors()) <= 1e-13
            assert_certified(plan)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        x, a, y, b = random_instance(rng, 7, 9)
        cost = (x[:, None] - y[None, :]) ** 2
        base = solve_lp(TransportInstance(a, b, cost)).objective
        pr = rng.permutation(7)
        pc = rng.permutation(9)
        permuted = solve_lp(TransportInstance(a[pr], b[pc], cost[np.ix_(pr, pc)])).objective
        assert permuted == pytest.approx(base, abs=1e-12)


class TestComonotone:
    def test_equal_atom_sets(self):
        x = np.array([0.3, 0.7, 1.1])
        m = np.array([0.2, 0.5, 0.3])
        plan = comonotone_plan_1d(x, m, x, m)
        assert plan.objective == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(plan.flows, np.diag(m))

    def test_monotone_pairing(self):
        plan = comonotone_plan_1d(
            np.array([0.0, 1.0]), np.array([0.5, 0.5]),
            np.array([2.0, 3.0]), np.array([0.5, 0.5]),
        )
        assert plan.objective == pytest.approx(4.0, abs=1e-14)
        assert np.allclose(plan.flows, 0.5 * np.eye(2))

    def test_matches_lp_on_random_atoms(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            x, a, y, b = random_instance(rng, n, n)
            plan = comonotone_plan_1d(x, a, y, b)
            lp = solve_lp(TransportInstance(a, b, (x[:, None] - y[None, :]) ** 2))
            assert plan.objective == pytest.approx(lp.objective, abs=1e-10)

    def test_unsorted_input_handled(self):
        x = np.array([2.0, 0.0, 1.0])
        y = np.array([3.0, 1.0, 2.0])
        m = np.full(3, 1 / 3)
        plan = comonotone_plan_1d(x, m, y, m)
        assert plan.objective == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_mismatched_lengths_rejected(self, side):
        # a surplus mass used to be dropped, leaving a plan of total mass 0.5
        short, full = (np.array([0.0, 1.0]), np.array([0.2, 0.3, 0.5])), (np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        x, a, y, b = (*short, *full) if side == "source" else (*full, *short)
        with pytest.raises(ValueError, match="one length"):
            comonotone_plan_1d(x, a, y, b)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"a": [1.5, -0.5]}, "masses must be nonnegative"),  # once a plan with row sums [1, 0]
            ({"a": [np.nan, 1.0]}, "must be finite"),
            ({"b": [np.inf, 0.0]}, "must be finite"),
            ({"x": [np.nan, 1.0]}, "positions must be finite"),  # once an objective of NaN
            ({"y": [0.0, np.inf]}, "positions must be finite"),
            ({"b": [0.5, 0.6]}, "must each sum to 1"),
            # finite positions, but (1e200 - 0)^2 overflows: once a numpy warning and an error about the cost
            ({"x": [0.0, 1e200]}, r"so must their squared distances: x in \[0.0, 1e\+200\], y in \[0.0, 1.0\]"),
        ],
        ids=["negative_mass", "nan_mass", "infinite_mass", "nan_position", "infinite_position", "unbalanced",
             "overflowing_distance"],
    )
    def test_bad_atoms_rejected(self, bad, match):
        atoms = {"x": [0.0, 1.0], "a": [0.5, 0.5], "y": [0.0, 1.0], "b": [0.5, 0.5], **bad}
        with pytest.raises(ValueError, match=match):
            comonotone_plan_1d(**{key: np.array(v) for key, v in atoms.items()})


class TestFull2D:
    def test_identical_densities(self):
        g = Grid1D.uniform(0.0, 1.0, 3)
        f = smooth_random_density_2d(g, g, seed=5)
        assert solve_full_2d(f, f).objective == pytest.approx(0.0, abs=1e-10)

    def test_concentrated_cells(self):
        g = Grid1D.uniform(-0.5, 1.5, 2)  # centers at 0 and 1
        va = np.zeros((2, 2))
        va[0, 0] = 1.0
        vb = np.zeros((2, 2))
        vb[1, 1] = 1.0
        f = DiscreteDensity2D.from_values(g, g, va)
        ft = DiscreteDensity2D.from_values(g, g, vb)
        assert solve_full_2d(f, ft).objective == pytest.approx(2.0, abs=1e-6)

    def test_product_instance_splits_by_axis(self):
        g = Grid1D.uniform(0.0, 2.0, 2)
        u1 = DiscreteDensity1D(g, np.array([0.6, 0.4]))
        u2 = DiscreteDensity1D(g, np.array([0.3, 0.7]))
        v1 = DiscreteDensity1D(g, np.array([0.45, 0.55]))
        v2 = DiscreteDensity1D(g, np.array([0.65, 0.35]))
        f = DiscreteDensity2D(g, g, np.outer(u1.values, u2.values))
        ft = DiscreteDensity2D(g, g, np.outer(v1.values, v2.values))
        full = solve_full_2d(f, ft).objective
        c = (g.centers[:, None] - g.centers[None, :]) ** 2
        ax1 = solve_lp(TransportInstance(u1.cell_masses, v1.cell_masses, c)).objective
        ax2 = solve_lp(TransportInstance(u2.cell_masses, v2.cell_masses, c)).objective
        assert full == pytest.approx(ax1 + ax2, abs=1e-10)

    @pytest.mark.parametrize("target", ["f_tilde", "f"])
    def test_narrow_gaussian_pair_at_16x16(self, target):
        # masses down to 6.6e-12: the simplex runs on the real masses, so they
        # cost the plan no accuracy
        f, f_tilde = narrow_gaussian_pair(16)
        plan = solve_full_2d(f, f_tilde if target == "f_tilde" else f)
        assert max(plan.marginal_errors()) <= 1e-13
        assert plan.duality_gap() <= 1e-13
        assert_certified(plan)
        if target == "f":
            assert plan.objective == 0.0

    def test_size_limit(self):
        g = Grid1D.uniform(0.0, 1.0, 17)
        f = smooth_random_density_2d(g, g, seed=1)
        with pytest.raises(SizeLimitError):
            solve_full_2d(f, f)

    def test_atoms_flattening(self):
        gx = Grid1D.uniform(0.0, 1.0, 2)
        gy = Grid1D.uniform(0.0, 1.0, 3)
        f = smooth_random_density_2d(gx, gy, seed=2)
        points, masses = atoms_from_density_2d(f)
        assert points.shape == (6, 2)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(points[0], [gx.centers[0], gy.centers[0]])

    def test_decomposition_accounting_on_plan(self):
        # squared planar distance splits into per-axis terms, term by term
        g = Grid1D.uniform(0.0, 1.0, 3)
        f = smooth_random_density_2d(g, g, seed=7)
        ft = smooth_random_density_2d(g, g, seed=8)
        flows = solve_full_2d(f, ft).flows
        ps, pt = atoms_from_density_2d(f)[0], atoms_from_density_2d(ft)[0]
        full = float(np.sum(flows * np.sum((ps[:, None, :] - pt[None, :, :]) ** 2, axis=2)))
        per_x = float(np.sum(flows * (ps[:, None, 0] - pt[None, :, 0]) ** 2))
        per_y = float(np.sum(flows * (ps[:, None, 1] - pt[None, :, 1]) ** 2))
        assert full == pytest.approx(per_x + per_y, abs=1e-12)
