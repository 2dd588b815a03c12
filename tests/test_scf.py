"""SCF: Poisson solver, Roche geometry, single stars and binaries."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import dwd_scenario, rotating_star, v1309_scenario
from repro.scf import BinarySCF, ScfResult, SingleStarSCF, roche_lobe_radius
from repro.scf.poisson import FftPoissonSolver
from repro.scf.scf import _connected_region

from tests.oracles.lane_emden import lane_emden
from tests.oracles.scf import PaddedFftPoissonSolver, label_region, rgi_trilinear


class TestLaneEmden:
    def test_n0_analytic(self):
        # theta = 1 - xi^2 / 6, surface at sqrt(6).
        sol = lane_emden(0.0)
        assert sol.xi1 == pytest.approx(np.sqrt(6.0), rel=1e-6)
        xi = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(sol.theta_of(xi), 1 - xi**2 / 6, atol=1e-6)

    def test_n1_analytic(self):
        # theta = sin(xi)/xi, surface at pi.
        sol = lane_emden(1.0)
        assert sol.xi1 == pytest.approx(np.pi, rel=1e-8)
        xi = np.array([0.5, 1.5, 3.0])
        np.testing.assert_allclose(sol.theta_of(xi), np.sin(xi) / xi, atol=1e-6)

    def test_n15_surface(self):
        # Standard tabulated value: xi_1 = 3.65375 for n = 1.5.
        sol = lane_emden(1.5)
        assert sol.xi1 == pytest.approx(3.65375, rel=1e-4)
        assert sol.mass_coefficient == pytest.approx(2.71406, rel=1e-3)

    def test_n3_surface(self):
        sol = lane_emden(3.0)
        assert sol.xi1 == pytest.approx(6.89685, rel=1e-4)

    def test_theta_outside_surface_zero(self):
        sol = lane_emden(1.5)
        assert sol.theta_of(np.array([sol.xi1 * 2])) == 0.0

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            lane_emden(-1.0)
        with pytest.raises(ValueError):
            lane_emden(5.0)


class TestPoisson:
    def test_uniform_sphere(self):
        n, box = 48, 2.0
        solver = FftPoissonSolver(n, box / n)
        c = -box / 2 + box / n * (np.arange(n) + 0.5)
        x, y, z = np.meshgrid(c, c, c, indexing="ij")
        r = np.sqrt(x**2 + y**2 + z**2)
        radius = 0.5
        rho = np.where(r < radius, 1.0, 0.0)
        mass = rho.sum() * (box / n) ** 3
        phi = solver.solve(rho)
        exact = np.where(
            r < radius,
            -mass * (3 * radius**2 - r**2) / (2 * radius**3),
            -mass / np.maximum(r, 1e-10),
        )
        assert np.abs(phi - exact).max() / np.abs(exact).max() < 5e-3

    def test_point_mass_far_field(self):
        n, box = 32, 2.0
        solver = FftPoissonSolver(n, box / n)
        rho = np.zeros((n, n, n))
        rho[n // 2, n // 2, n // 2] = 1.0
        mass = (box / n) ** 3
        phi = solver.solve(rho)
        # Far corner: potential ~ -m/r.
        c = -box / 2 + box / n * (np.arange(n) + 0.5)
        r_corner = np.sqrt(3) * abs(c[0] - c[n // 2])
        assert phi[0, 0, 0] == pytest.approx(-mass / r_corner, rel=1e-2)

    def test_linearity(self):
        n = 16
        solver = FftPoissonSolver(n, 0.1)
        rng = np.random.default_rng(0)
        a, b = rng.random((n, n, n)), rng.random((n, n, n))
        np.testing.assert_allclose(
            solver.solve(a + 2 * b), solver.solve(a) + 2 * solver.solve(b), atol=1e-10
        )

    def test_gradient_points_inward(self):
        n, box = 32, 2.0
        solver = FftPoissonSolver(n, box / n)
        c = -box / 2 + box / n * (np.arange(n) + 0.5)
        x, y, z = np.meshgrid(c, c, c, indexing="ij")
        rho = np.where(np.sqrt(x**2 + y**2 + z**2) < 0.4, 1.0, 0.0)
        phi = solver.solve(rho)
        acc_x = -np.gradient(phi, solver.dx, axis=0, edge_order=2)
        # At +x edge, acceleration points in -x.
        assert acc_x[-1, n // 2, n // 2] < 0

    def test_shape_validation(self):
        solver = FftPoissonSolver(16, 0.1)
        with pytest.raises(ValueError):
            solver.solve(np.zeros((8, 8, 8)))

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            FftPoissonSolver(2, 0.1)


class TestRoche:
    def test_eggleton_equal_mass(self):
        # q = 1: R_L / a = 0.379 (Eggleton 1983).
        assert roche_lobe_radius(1.0) == pytest.approx(0.379, rel=2e-3)

    def test_eggleton_monotone_in_q(self):
        qs = [0.1, 0.5, 1.0, 2.0, 10.0]
        radii = [roche_lobe_radius(q) for q in qs]
        assert radii == sorted(radii)

@pytest.mark.slow
class TestSingleStarScf:
    def test_nonrotating_sphere_matches_lane_emden(self):
        scf = SingleStarSCF(rho_max=1.0, r_equator=0.5, r_pole=0.5, poly_n=1.5, n=48)
        result = scf.run()
        assert result.converged
        assert result.omega == pytest.approx(0.0, abs=1e-8)
        # Radial density profile ~ Lane-Emden theta^1.5 (shapes compared
        # after normalising both to their maxima: the 48^3 SCF grid puts
        # its density peak half a cell off r = 0, shifting the scale).
        le = lane_emden(1.5)
        c = -1.0 + (2.0 / 48) * (np.arange(48) + 0.5)
        j = 24
        profile = result.rho[:, j, j]
        r = np.abs(c)
        expected = le.theta_of(r / (0.5 / le.xi1)) ** 1.5
        inside = r < 0.4
        np.testing.assert_allclose(
            profile[inside] / profile.max(),
            expected[inside] / expected.max(),
            atol=0.06,
        )

    def test_rotating_star_spins_and_flattens(self):
        scf = SingleStarSCF(rho_max=1.0, r_equator=0.5, r_pole=0.4, poly_n=1.5, n=48)
        result = scf.run()
        assert result.converged
        assert result.omega > 0.1
        j = 24
        # Oblate: equatorial extent exceeds polar extent.
        eq_extent = (result.rho[:, j, j] > 1e-4).sum()
        pol_extent = (result.rho[j, j, :] > 1e-4).sum()
        assert eq_extent > pol_extent

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SingleStarSCF(r_equator=0.3, r_pole=0.4)


@pytest.mark.slow
class TestBinaryScf:
    def test_detached_binary_physical(self):
        scf = BinarySCF(
            x_a=-0.72, x_b=-0.26, x_c=0.42, rho_max_1=1.0, rho_max_2=0.8, n=32
        )
        result = scf.run(max_iter=150)
        m1, m2 = result.star_masses
        assert m1 > 0 and m2 > 0
        q = m2 / m1
        assert 0.5 < q < 0.9  # tuned for ~0.7
        # Omega close to the Keplerian value of the point-mass binary.
        j = 16
        prof = result.rho[:, j, j]
        axis = -1.0 + (2.0 / 32) * (np.arange(32) + 0.5)
        left = np.where(axis < result.split_x, prof, 0)
        right = np.where(axis >= result.split_x, prof, 0)
        sep = axis[np.argmax(right)] - axis[np.argmax(left)]
        kepler = np.sqrt((m1 + m2) / sep**3)  # Kepler's third law, G = 1
        assert result.omega == pytest.approx(kepler, rel=0.25)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BinarySCF(x_a=0.5, x_b=-0.1, x_c=0.6)

    def test_com_tracked(self):
        scf = BinarySCF(
            x_a=-0.72, x_b=-0.26, x_c=0.42, rho_max_1=1.0, rho_max_2=0.8, n=32
        )
        result = scf.run(max_iter=150)
        # More mass on the left: COM is at negative x.
        assert result.x_com < 0.0


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestNumpyMatchesScipyOracle:
    """The numpy grid operations give the scipy versions' bits."""

    @pytest.mark.parametrize("n", [4, 5, 16, 48])
    def test_poisson_solve(self, n):
        dx = 2.0 / n
        solver = FftPoissonSolver(n, dx, g_newton=0.7)
        oracle = PaddedFftPoissonSolver(n, dx, g_newton=0.7)
        np.testing.assert_array_equal(
            solver._green_hat.view(np.uint64), oracle._green_hat.view(np.uint64)
        )
        rng = np.random.default_rng(n)
        for rho in (rng.random((n, n, n)), rng.standard_normal((n, n, n))):
            np.testing.assert_array_equal(
                _bits(solver.solve(rho)), _bits(oracle.solve(rho))
            )

    def test_trilinear(self):
        n = 6
        grid = -1.0 + (2.0 / n) * (np.arange(n) + 0.5)
        data = np.random.default_rng(3).standard_normal((n, n, n))
        rng = np.random.default_rng(4)
        nodes = np.meshgrid(grid, grid, grid, indexing="ij")  # incl. the last
        inside = tuple(rng.uniform(grid[0], grid[-1], (5, 7, 9)) for _ in range(3))
        edge = np.array([-1.5, -1.0, grid[0], grid[-1], 1.0, 1.5, 0.0, grid[2]])
        outside = np.meshgrid(edge, edge, edge, indexing="ij")
        for x, y, z in (nodes, inside, outside):
            got = ScfResult._trilinear(grid, data, x, y, z)
            assert got.shape == x.shape
            np.testing.assert_array_equal(
                _bits(got), _bits(rgi_trilinear(grid, data, x, y, z))
            )
        x, y, z = outside
        beyond = np.zeros(x.shape, dtype=bool)
        for p in (x, y, z):
            beyond |= (p < grid[0]) | (p > grid[-1])
        assert beyond.any() and not got[beyond].any()
        assert got[0, 0, 0] == 0.0 and got[2, 2, 2] == data[0, 0, 0]

    @given(
        data=st.data(),
        shape=st.tuples(*[st.integers(1, 7)] * 3),
        fill=st.floats(0.1, 0.9),
    )
    @settings(max_examples=200, deadline=None)
    def test_connected_region(self, data, shape, fill):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        mask = rng.random(shape) < fill
        seed = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        got = _connected_region(mask, seed)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, label_region(mask, seed))

    def test_connected_region_cases(self):
        n = 9
        c = np.arange(n)
        x, y, z = np.meshgrid(c, c, c, indexing="ij")
        blobs = ((x - 2) ** 2 + (y - 2) ** 2 + (z - 2) ** 2 < 5) | (
            (x - 6) ** 2 + (y - 6) ** 2 + (z - 6) ** 2 < 5
        )
        # A spiral: one component that needs many passes of the fill.
        spiral = np.zeros((n, n, 1), dtype=bool)
        spiral[0, :, 0] = spiral[:, -1, 0] = spiral[-1, :, 0] = True
        spiral[2:, 0, 0] = spiral[2, :-2, 0] = spiral[2:-2, -3, 0] = True
        spiral[-3, 2:-2, 0] = spiral[4:-2, 2, 0] = True
        faces = (x == 0) | (y == n - 1) | (z == 0) | (x == n - 1)
        cases = [
            (blobs, (2, 2, 2)),  # several components
            (blobs, (6, 6, 6)),
            (blobs, (0, 8, 0)),  # seed outside the mask
            (spiral, (0, 0, 0)),
            (spiral, (4, 4, 0)),
            (faces, (0, 4, 4)),  # touches the box faces
            (np.ones((n, n, n), dtype=bool), (8, 8, 8)),
            (np.zeros((n, n, n), dtype=bool), (4, 4, 4)),
        ]
        for mask, seed in cases:
            np.testing.assert_array_equal(
                _connected_region(mask, seed), label_region(mask, seed)
            )

    @pytest.mark.parametrize(
        "build", [rotating_star, dwd_scenario, v1309_scenario],
        ids=["star", "dwd", "v1309"],
    )
    def test_scenario_build(self, build, monkeypatch):
        """A level-1 build gives the same model and mesh bits as with the
        scipy bodies monkeypatched in."""
        import repro.scf.scf as scf_module

        def fingerprint(scenario):
            digest = hashlib.sha256()
            for key in sorted(scenario.mesh.nodes):
                digest.update(repr(key).encode())
                interior = scenario.mesh.nodes[key].subgrid.interior_view()
                digest.update(np.ascontiguousarray(interior).tobytes())
            model = scenario.scf
            digest.update(_bits(model.rho).tobytes() + _bits(model.phi).tobytes())
            digest.update(repr((model.omega, model.iterations, model.star_masses)).encode())
            return digest.hexdigest()

        production = fingerprint(build(level=1, scf_grid=32))
        monkeypatch.setattr(scf_module, "FftPoissonSolver", PaddedFftPoissonSolver)
        monkeypatch.setattr(scf_module, "_connected_region", label_region)
        monkeypatch.setattr(ScfResult, "_trilinear", staticmethod(rgi_trilinear))
        assert fingerprint(build(level=1, scf_grid=32)) == production
