import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import shift_pair
from planar_mk import oracle
from planar_mk.instances import smooth_random_density_2d
from planar_mk.measures import DiscreteDensity1D, DiscreteDensity2D, Grid1D
from planar_mk.oracle import (
    Planar2DPlan,
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


# the benchmark's compare8 cases: (seed, (sx, sy)) on 8x8 grids
COMPARE8_CASES = ((1, (1, 0)), (2, (0, 1)), (3, (1, 1)), (4, (2, 1)), (5, (1, 2)), (6, (2, 2)))


def compare8_pairs():
    for seed, (sx, sy) in COMPARE8_CASES:
        yield shift_pair(seed, sx, sy, 8)


def tied_instances(seed, count, max_side):
    """Random instances on integer atom positions (many tied costs); every
    other one has uniform masses, so degenerate bases are common."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m, k = int(rng.integers(1, max_side + 1)), int(rng.integers(1, max_side + 1))
        x, a, y, b = random_instance(rng, m, k, tied=True)
        if trial % 2:
            a, b = np.full(m, 1.0 / m), np.full(k, 1.0 / k)
        yield TransportInstance(a, b, (x[:, None] - y[None, :]) ** 2)


def assert_certified(plan, instance):
    """Dual feasibility and strong duality: a proof of optimality."""
    assert np.max(plan.u[:, None] + plan.v[None, :] - instance.cost) <= oracle._RC_TOL
    assert plan.duality_gap(instance.supply, instance.demand) <= 1e-10


def assert_same_plan(plan, ref):
    """Equal bits in the flows, the objective and both potentials."""
    assert np.array_equal(plan.flows, ref.flows)
    assert plan.objective == ref.objective
    assert np.array_equal(plan.u, ref.u) and np.array_equal(plan.v, ref.v)


def spy_pivots(monkeypatch):
    """Record every pivot's theta: the flow `_pivot` puts on the entering arc."""
    thetas = []
    pivot = oracle._pivot

    def spy(flows, cycle_arcs):
        leave = pivot(flows, cycle_arcs)
        thetas.append(flows[cycle_arcs[0]])
        return leave

    monkeypatch.setattr(oracle, "_pivot", spy)
    return thetas


def reference_solve_lp(instance):
    """The transportation simplex with a whole-tree walk after every pivot.

    A self-contained copy with the start, perturbation, pricing, cycle, ratio
    test and final recompute of `solve_lp`, but which walks the whole basis
    tree and recomputes every potential at each pivot: the reference that the
    re-hung subtrees must match bit for bit.
    """
    a0, b0, cost = instance.supply, instance.demand, instance.cost
    m, k = cost.shape
    a = a0 + oracle._PERTURB * (np.arange(m) + 1)
    b = b0.copy()
    b[-1] += oracle._PERTURB * (m * (m + 1)) / 2

    def arc(node, par):
        return (node, par - m) if node < m else (par, node - m)

    def walk(arcs):
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

    def tree_flows(order, parent, supply, demand):
        bal = supply.tolist() + (-demand).tolist()
        flows = {}
        for node in reversed(order[1:]):
            par = parent[node]
            flows[arc(node, par)] = bal[node] if node < m else -bal[node]
            bal[par] += bal[node]
        return flows

    ra, rb = a.copy(), b.copy()
    i = j = 0
    arcs = [(0, 0)]
    while not (i == m - 1 and j == k - 1):  # northwest corner
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
    order, parent, depth = walk(arcs)
    flows = tree_flows(order, parent, a, b)
    cost_rows = cost.tolist()
    for _ in range(200 * (m + k) * max(m, k)):
        pot = [0.0] * (m + k)
        for node in order[1:]:
            i, j = arc(node, parent[node])
            pot[node] = cost_rows[i][j] - pot[parent[node]]
        rc = cost - np.array(pot[:m])[:, None] - np.array(pot[m:])[None, :]
        enter = int(np.argmin(rc))
        if rc.flat[enter] >= -oracle._RC_TOL:
            break
        ei, ej = divmod(enter, k)
        up, down = [], []
        x, y = m + ej, ei
        while x != y:
            if depth[x] >= depth[y]:
                up.append(arc(x, parent[x]))
                x = parent[x]
            else:
                down.append(arc(y, parent[y]))
                y = parent[y]
        cycle_arcs = [(ei, ej), *up, *reversed(down)]
        minus_arcs = cycle_arcs[1::2]
        theta = min(flows[c] for c in minus_arcs)
        leave = next(c for c in minus_arcs if flows[c] == theta)
        flows[(ei, ej)] = theta
        for c in minus_arcs:
            flows[c] -= theta
        for c in cycle_arcs[2::2]:
            flows[c] += theta
        del flows[leave]
        order, parent, depth = walk(flows)
    else:
        raise AssertionError("reference simplex hit its iteration cap")
    flow_mat = np.zeros((m, k))
    for (i, j), f in tree_flows(order, parent, a0, b0).items():
        flow_mat[i, j] = max(f, 0.0)
    return TransportPlan(flow_mat, float(np.sum(flow_mat * cost)), np.array(pot[:m]), np.array(pot[m:]))


def random_instances(seed, count, max_side):
    """Random instances, tied and untied in turn, with 1 to max_side atoms per side."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m, k = int(rng.integers(1, max_side + 1)), int(rng.integers(1, max_side + 1))
        x, a, y, b = random_instance(rng, m, k, tied=trial % 2 == 1)
        yield TransportInstance(a, b, (x[:, None] - y[None, :]) ** 2)


@st.composite
def lp_instances(draw):
    """1 to 12 atoms per side on a line; tied draws put them on integers 0..3."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        x, y = (np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float) for n in (m, k))
    else:
        x, y = (draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0))) for n in (m, k))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
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
            r, c = plan.marginal_errors(a, b)
            assert max(r, c) < 1e-10

    @pytest.mark.parametrize("field", ["supply", "demand", "cost"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        parts = {"supply": np.array([0.5, 0.5]), "demand": np.array([0.5, 0.5]), "cost": np.ones((2, 2))}
        parts[field].flat[0] = bad
        with pytest.raises(ValueError, match="finite"):
            TransportInstance(**parts)

    def test_matches_highs(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(14)
        for trial in range(40):
            m, k = int(rng.integers(1, 13)), int(rng.integers(1, 13))
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
            result = solve_full_2d(f, f_tilde)
            assert_certified(result.plan, result.instance)

    def test_duality_certificate_on_tied_instances(self):
        for instance in tied_instances(seed=15, count=200, max_side=12):
            assert_certified(solve_lp(instance), instance)

    def test_every_pivot_moves_flow(self, monkeypatch):
        # the supply perturbation keeps every basis flow >= _PERTURB (up to
        # roundoff), so no pivot is degenerate and the simplex cannot cycle
        thetas = spy_pivots(monkeypatch)
        for instance in tied_instances(seed=16, count=300, max_side=12):
            solve_lp(instance)
        assert len(thetas) > 1000
        assert min(thetas) > oracle._PERTURB / 2

    def test_pivot_budget_on_compare8(self, monkeypatch):
        # Dantzig pricing takes 114-181 pivots per case; Bland's rule took 908-2952
        thetas = spy_pivots(monkeypatch)
        pivots = []
        for f, f_tilde in compare8_pairs():
            before = len(thetas)
            solve_full_2d(f, f_tilde)
            pivots.append(len(thetas) - before)
        assert pivots == [132, 148, 147, 181, 114, 137]
        assert max(pivots) < 300

    def test_kept_parent_arcs_match_the_tree(self, monkeypatch):
        # the cycle climb reads each node's kept arc to its parent; after every
        # pivot's re-hang it must be the arc that joins the node to its parent
        rehang, pivot = oracle._rehang, oracle._pivot
        tree = {}
        checks = []

        def check():
            parent, parent_arc, m = tree["lists"]
            checks.append(all(parent_arc[x] == oracle._arc(x, parent[x], m) for x in range(1, len(parent))))

        def spy_rehang(adj, node, par, parent, parent_arc, *rest):
            tree["lists"] = parent, parent_arc, rest[-1]
            rehang(adj, node, par, parent, parent_arc, *rest)

        def spy_pivot(flows, cycle_arcs):
            check()  # the start's tree, or the previous pivot's re-hung one
            return pivot(flows, cycle_arcs)

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
        ],
        ids=["tied", "random"],
    )
    def test_bit_identical_to_whole_tree_walks(self, instances):
        for instance in instances():
            assert_same_plan(solve_lp(instance), reference_solve_lp(instance))

    def test_bit_identical_to_whole_tree_walks_on_compare8(self):
        for f, f_tilde in compare8_pairs():
            result = solve_full_2d(f, f_tilde)
            assert_same_plan(result.plan, reference_solve_lp(result.instance))

    @settings(max_examples=200, deadline=None)
    @given(instance=lp_instances())
    def test_certificate_on_random_instances(self, instance):
        assert_certified(solve_lp(instance), instance)

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


class TestFull2D:
    def test_identical_densities(self):
        g = Grid1D.uniform(0.0, 1.0, 3)
        f = smooth_random_density_2d(g, g, seed=5)
        result = solve_full_2d(f, f)
        assert result.objective == pytest.approx(0.0, abs=1e-10)

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
        result = solve_full_2d(f, ft)
        ps, pt = atoms_from_density_2d(f)[0], atoms_from_density_2d(ft)[0]
        flows = result.plan.flows
        full = float(np.sum(flows * np.sum((ps[:, None, :] - pt[None, :, :]) ** 2, axis=2)))
        per_x = float(np.sum(flows * (ps[:, None, 0] - pt[None, :, 0]) ** 2))
        per_y = float(np.sum(flows * (ps[:, None, 1] - pt[None, :, 1]) ** 2))
        assert full == pytest.approx(per_x + per_y, abs=1e-12)
