"""Grid, field, operator, and functional tests against independent oracles."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsbu import (
    Field,
    Grid2D,
    OperatorParams,
    apply_b,
    apply_l,
    energy,
    gradient_norm_sq,
    l4_norm_4,
    mass,
    quartic_term,
    sample_scaled,
    second_moment,
)
from dsbu.errors import DomainError, GridMismatchError, UsageError
from dsbu.spectral import PHYSICAL, FieldTerms, Quarter, density, interaction_potential

from oracles import (
    direct_b_multiplier,
    direct_quartic,
    full_spectrum_quartic,
    meshgrid_second_moment,
)


def gaussian_field(grid, amplitude=1.0, width=1.0):
    x1, x2 = grid.coords()
    return Field(grid, amplitude * np.exp(-(x1**2 + x2**2) / (2 * width**2)))


class TestGrid:
    def test_coordinates_and_wavenumbers_reproducible(self):
        g = Grid2D(16, 8.0)
        assert g.dx == 0.5
        assert g.x[0] == -4.0 and g.x[8] == 0.0
        np.testing.assert_allclose(g.x, -4.0 + 0.5 * np.arange(16))
        k_int = np.fft.fftfreq(16, d=1.0 / 16)
        np.testing.assert_allclose(g.k, 2 * np.pi * k_int / 8.0)

    def test_wavenumber_lattice_symmetric_up_to_nyquist(self):
        g = Grid2D(32, 5.0)
        positive = np.sort(g.k[g.k > 0])
        negative = np.sort(-g.k[g.k < 0])
        # every positive mode is paired; only the Nyquist mode is unpaired
        np.testing.assert_allclose(negative[:-1], positive)
        assert negative[-1] == pytest.approx(2 * np.pi * 16 / 5.0)

    @pytest.mark.parametrize("n", [6, 7, 9])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(UsageError):
            Grid2D(n, 1.0)

    def test_rejects_bad_box(self):
        with pytest.raises(UsageError):
            Grid2D(16, 0.0)

    def test_full_grid_l_builds_no_n_by_n_symbol(self):
        # L on the full grid reads B's symbol on rfft's half columns, built as it is
        g = Grid2D(64, 12.0)
        x1, x2 = g.coords()
        w = np.exp(-((x1 - 0.7) ** 2 + 2 * (x2 + 0.3) ** 2))
        interaction_potential(w, g, OperatorParams(1, 1.0))
        assert g.b_half.shape == (64, 33) and g.b_half.base is None
        assert not g.b_half.flags.writeable
        assert "ksq" not in vars(g)


class TestField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            Field(Grid2D(16, 1.0), np.zeros((8, 8)))

    def test_space_tag_other_than_physical_rejected(self):
        g = Grid2D(16, 1.0)
        assert np.array_equal(Field(g, np.ones((16, 16)), PHYSICAL).values, np.ones((16, 16)))
        for tag in ("spectral", "", None):
            with pytest.raises(UsageError):
                Field(g, np.ones((16, 16)), tag)

    def test_params_validation(self):
        with pytest.raises(UsageError):
            OperatorParams(0, 1.0)
        with pytest.raises(UsageError):
            OperatorParams(1, -2.0)
        with pytest.raises(UsageError):
            OperatorParams(1, 0.0)

    def test_params_reject_infinite_gamma(self):
        with pytest.raises(UsageError, match="gamma must be positive and finite") as exc:
            OperatorParams(1, np.inf)
        assert exc.value.key == "gamma"


class TestApplyB:
    def test_pure_x1_mode_is_fixed(self):
        g = Grid2D(64, 10.0)
        x1, _ = g.coords()
        a = 2 * np.pi * 3 / 10.0
        f = Field(g, np.cos(a * x1) + 0j)
        out = apply_b(f)
        np.testing.assert_allclose(out.values.real, f.values.real, atol=1e-13)

    def test_constant_maps_to_half(self):
        # zero-mode convention: the origin cell carries the symbol average 1/2
        g = Grid2D(32, 4.0)
        f = Field(g, np.ones((32, 32)) + 0j)
        out = apply_b(f)
        np.testing.assert_allclose(out.values.real, 0.5, atol=1e-14)

    def test_diagonal_product_mode_halved(self):
        g = Grid2D(64, 10.0)
        x1, x2 = g.coords()
        a = 2 * np.pi * 4 / 10.0
        f = Field(g, np.cos(a * x1) * np.cos(a * x2) + 0j)
        out = apply_b(f)
        np.testing.assert_allclose(out.values.real, 0.5 * f.values.real, atol=1e-13)

    def test_rejects_complex_input(self):
        g = Grid2D(16, 4.0)
        f = Field(g, np.full((16, 16), 1.0 + 0.1j))
        with pytest.raises(DomainError):
            apply_b(f)

    def test_matches_direct_transform_oracle(self):
        g = Grid2D(16, 5.0)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((16, 16))
        got = apply_b(Field(g, vals + 0j)).values
        want = direct_b_multiplier(vals.astype(complex), g.box_length)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        # the real-transform kernel L(w) = nu*w + gamma*B w, both signs of nu
        w = rng.standard_normal((16, 16))
        bw = direct_b_multiplier(w.astype(complex), g.box_length)
        for nu in (1, -1):
            got = interaction_potential(w, g, OperatorParams(nu, 0.7))
            want = nu * w + 0.7 * bw
            assert np.isrealobj(got)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_reality_and_self_adjointness(self):
        g = Grid2D(32, 6.0)
        rng = np.random.default_rng(5)
        f = rng.standard_normal((32, 32))
        h = rng.standard_normal((32, 32))
        bf = apply_b(Field(g, f + 0j)).values
        bh = apply_b(Field(g, h + 0j)).values
        assert np.max(np.abs(bf.imag)) <= 1e-12 * np.linalg.norm(f)
        lhs = np.sum(bf.real * h)
        rhs = np.sum(f * bh.real)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_quadratic_form_bounds(self):
        g = Grid2D(32, 6.0)
        rng = np.random.default_rng(8)
        for _ in range(25):
            f = rng.standard_normal((32, 32))
            field = Field(g, f + 0j)
            quad = np.sum(apply_b(field).values.real * f) * g.dx**2
            norm_sq = mass(field)
            assert -1e-12 * norm_sq <= quad <= norm_sq * (1 + 1e-12)


class TestApplyL:
    def test_x2_only_mode_gets_nu_times(self):
        # symbol vanishes on the xi1 = 0 axis
        g = Grid2D(64, 10.0)
        _, x2 = g.coords()
        a = 2 * np.pi * 5 / 10.0
        f = Field(g, np.cos(a * x2) + 0j)
        out = apply_l(f, OperatorParams(1, 1.0))
        np.testing.assert_allclose(out.values.real, f.values.real, atol=1e-13)

    def test_x1_mode_doubled_for_unit_couplings(self):
        g = Grid2D(64, 10.0)
        x1, _ = g.coords()
        a = 2 * np.pi * 5 / 10.0
        f = Field(g, np.cos(a * x1) + 0j)
        out = apply_l(f, OperatorParams(1, 1.0))
        np.testing.assert_allclose(out.values.real, 2.0 * f.values.real, atol=1e-13)

    def test_operator_bound_on_random_fields(self):
        g = Grid2D(32, 6.0)
        rng = np.random.default_rng(11)
        for gamma in (0.3, 1.0, 2.5):
            p = OperatorParams(1, gamma)
            for _ in range(40):
                f = Field(g, rng.standard_normal((32, 32)) + 0j)
                ratio = np.linalg.norm(apply_l(f, p).values) / np.linalg.norm(f.values)
                assert ratio <= (1 + gamma) * (1 + 1e-12)

    def test_linear_in_f(self):
        g = Grid2D(16, 4.0)
        rng = np.random.default_rng(12)
        p = OperatorParams(-1, 0.7)
        f = rng.standard_normal((16, 16))
        h = rng.standard_normal((16, 16))
        combined = apply_l(Field(g, 2.0 * f + 3.0 * h + 0j), p).values
        parts = 2.0 * apply_l(Field(g, f + 0j), p).values + 3.0 * apply_l(
            Field(g, h + 0j), p
        ).values
        np.testing.assert_allclose(combined, parts, atol=1e-12)


class TestFunctionals:
    def test_mass_values(self):
        g = Grid2D(256, 20.0)
        assert mass(Field(g, np.zeros((256, 256)))) == 0.0
        gauss = gaussian_field(g)
        assert abs(mass(gauss) - np.pi) <= 1e-10 * np.pi
        x1, _ = g.coords()
        wave = Field(g, np.exp(1j * 2 * np.pi * 5 / 20.0 * x1))
        assert abs(mass(wave) - g.box_length**2) <= 1e-10 * g.box_length**2

    def test_parseval_consistency(self):
        g = Grid2D(64, 9.0)
        rng = np.random.default_rng(21)
        u = Field(g, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        phys = mass(u)
        spec = g.dx**2 / g.n**2 * np.sum(np.abs(np.fft.fft2(u.values)) ** 2)
        assert abs(phys - spec) <= 1e-12 * phys

    def test_gradient_norm(self):
        g = Grid2D(256, 20.0)
        assert gradient_norm_sq(Field(g, np.ones((256, 256)))) <= 1e-14
        x1, _ = g.coords()
        a = 2 * np.pi * 4 / 20.0
        wave = Field(g, np.exp(1j * a * x1))
        assert abs(gradient_norm_sq(wave) - a**2 * 400.0) <= 1e-10 * a**2 * 400.0
        # integral of |x|^2 e^{-|x|^2} equals pi (1-D product quadrature oracle)
        x = np.linspace(-20, 20, 100_001)
        oracle = 2 * np.trapezoid(x**2 * np.exp(-(x**2)), x) * np.trapezoid(
            np.exp(-(x**2)), x
        )
        assert abs(gradient_norm_sq(gaussian_field(g)) - oracle) <= 1e-8 * oracle

    def test_quartic_cos_plus_one(self):
        g = Grid2D(128, 16.0)
        x1, _ = g.coords()
        a = 2 * np.pi * 3 / 16.0
        w = np.cos(a * x1) + 1.0
        u = Field(g, np.sqrt(w) + 0j)
        p = OperatorParams(1, 1.0)
        got = quartic_term(u, p)
        box_area = g.box_length**2
        # integral w^2 = 3/2 area; <Bw, w> picks the cosine line plus the
        # mean mode at weight 1/2: area/2 + (area)^2/(2 area) ... computed
        # directly by quadrature below.
        quad_w2 = g.dx**2 * np.sum(w * w)
        b_part = g.dx**2 * np.sum((np.cos(a * x1) + 0.5) * w)
        assert abs(quad_w2 - 1.5 * box_area) <= 1e-10 * box_area
        assert abs(got - (quad_w2 + b_part)) <= 1e-10 * abs(got)

    def test_quartic_matches_direct_quadratic_form(self):
        g = Grid2D(16, 5.0)
        rng = np.random.default_rng(31)
        u = Field(g, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        for nu, gamma in [(1, 0.8), (-1, 2.0)]:
            got = quartic_term(u, OperatorParams(nu, gamma))
            want = direct_quartic(u.values, g.box_length, nu, gamma)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)

    def test_quartic_gamma_part_bounds(self):
        g = Grid2D(64, 10.0)
        rng = np.random.default_rng(33)
        u = Field(g, rng.standard_normal((64, 64)) + 0j)
        gamma = 1.7
        with_b = quartic_term(u, OperatorParams(1, gamma))
        l4 = l4_norm_4(u)
        gamma_part = with_b - l4
        assert -1e-12 * l4 <= gamma_part <= gamma * l4 * (1 + 1e-12)

    def test_energy_sign_change_in_amplitude(self):
        g = Grid2D(256, 20.0)
        p = OperatorParams(1, 1.0)
        low = energy(gaussian_field(g, amplitude=1.0), p)
        high = energy(gaussian_field(g, amplitude=10.0), p)
        assert low > 0 > high

    def test_energy_zero_field(self):
        g = Grid2D(64, 10.0)
        assert energy(Field(g, np.zeros((64, 64))), OperatorParams(1, 1.0)) == 0.0

    def test_second_moment_gaussian(self):
        g = Grid2D(256, 20.0)
        sm = second_moment(gaussian_field(g))
        assert sm.boundary_ok
        assert abs(sm.value - np.pi) <= 1e-8 * np.pi

    def test_second_moment_boundary_flag(self):
        g = Grid2D(64, 6.0)  # box too small: visible boundary values
        sm = second_moment(gaussian_field(g, width=1.5))
        assert not sm.boundary_ok

    def test_second_moment_single_center_cell(self):
        g = Grid2D(64, 8.0)
        vals = np.zeros((64, 64))
        vals[32, 32] = 3.0  # the cell at x = 0
        sm = second_moment(Field(g, vals))
        assert sm.value == 0.0

    def test_second_moment_parallel_axis(self):
        g = Grid2D(256, 20.0)
        u = gaussian_field(g, amplitude=1.3)
        shift_cells = 16
        d = shift_cells * g.dx
        shifted = Field(g, np.roll(u.values, shift_cells, axis=0))
        x1, _ = g.coords()
        first_moment = g.dx**2 * np.sum(x1 * np.abs(u.values) ** 2)
        expected = second_moment(u).value + d**2 * mass(u) + 2 * d * first_moment
        got = second_moment(shifted).value
        assert abs(got - expected) <= 1e-8 * expected

    def test_l4_values(self):
        g = Grid2D(256, 20.0)
        assert l4_norm_4(Field(g, np.zeros((256, 256)))) == 0.0
        x1, _ = g.coords()
        wave = Field(g, np.exp(1j * 2 * np.pi * 3 / 20.0 * x1))
        assert abs(l4_norm_4(wave) - 400.0) <= 1e-10 * 400.0
        assert abs(l4_norm_4(gaussian_field(g)) - np.pi / 2) <= 1e-10 * np.pi


class TestReducedFormulas:
    """Half-spectrum and axis-sum functionals against their full n x n forms."""

    @staticmethod
    def random_fields():
        rng = np.random.default_rng(11)
        for n, box in ((16, 5.0), (64, 10.0), (128, 17.0)):
            g = Grid2D(n, box)
            for _ in range(3):
                vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                yield Field(g, vals)

    def test_quartic_matches_full_spectrum(self):
        for u in self.random_fields():
            for p in (OperatorParams(1, 1.0), OperatorParams(1, 0.3), OperatorParams(-1, 2.5)):
                expected = full_spectrum_quartic(u, p)
                assert abs(quartic_term(u, p) - expected) <= 1e-13 * abs(expected)

    def test_second_moment_matches_meshgrid(self):
        for u in self.random_fields():
            expected = meshgrid_second_moment(u)
            assert abs(second_moment(u).value - expected) <= 1e-13 * expected

    def test_gradient_matches_full_weight_array(self):
        for u in self.random_fields():
            g = u.grid
            uh = np.fft.fft2(u.values)
            expected = g.dx**2 / g.n**2 * np.sum(g.ksq * np.abs(uh) ** 2)
            assert abs(gradient_norm_sq(u) - expected) <= 1e-13 * expected
            assert FieldTerms(u.values, g, uh).grad == gradient_norm_sq(u)

    def test_potential_from_given_half_spectrum(self):
        # FieldTerms.potential reads the shared rfft2(|u|^2) and leaves it as it was
        g = Grid2D(64, 10.0)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        p = OperatorParams(-1, 1.5)
        terms = FieldTerms(values, g)
        shared = terms.rho_half.copy()
        given = terms.potential(p)
        assert np.array_equal(given, interaction_potential(density(values), g, p))
        assert np.array_equal(terms.rho_half, shared)


def mirrored(quarter, n):
    """The n x n array whose sample (i, j) is quarter[min(i, n-i), min(j, n-j)]."""
    idx = np.minimum(np.arange(n), n - np.arange(n))
    return quarter[np.ix_(idx, idx)]


def even_samples(n, seed):
    """Random complex n x n samples equal to their mirrors in x1 and in x2, and their quarter."""
    rng = np.random.default_rng(seed)
    h = n // 2 + 1
    q = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    return mirrored(q, n), q


sizes = st.sampled_from([8, 64, 256])
seeds = st.integers(0, 2**32 - 1)


class TestQuarter:
    """The quarter transform object against numpy's full-grid transforms and sums."""

    def test_holds_only_fields_equal_to_their_mirrors(self):
        g = Grid2D(64, 12.0)
        u = gaussian_field(g).values
        assert Quarter.holds(u)
        x1, x2 = g.coords()
        assert Quarter.holds(np.exp(-(x1**2 + (0.5 * x2) ** 2)))
        assert not Quarter.holds(np.exp(-((x1 - 0.3) ** 2 + x2**2)))
        ulp = u.copy()
        ulp[3, 5] = np.nextafter(ulp[3, 5].real, 2.0)
        assert not Quarter.holds(ulp)
        assert not Quarter.holds(ulp.T)

    @settings(max_examples=12, deadline=None)
    @given(sizes, seeds)
    def test_transforms_are_bitwise_the_quarter_of_the_full_ones(self, n, seed):
        # the complex pair and unfold bitwise; the real pair, whose spectra are
        # real, to a few ulps of the maximum of numpy's real pair
        full, q = even_samples(n, seed)
        space, h = Quarter(Grid2D(n, 10.0)), n // 2 + 1
        assert np.array_equal(space.unfold(q, np.empty((n, n), complex)), full)
        assert np.array_equal(space.fft(q, np.empty_like(q)), np.fft.fft2(full)[:h, :h])
        assert np.array_equal(space.ifft_in_place(q.copy()), np.fft.ifft2(full)[:h, :h])
        ulps = 8 * np.finfo(float).eps
        w = q.real.copy()
        s = space.rfft(w)
        want = np.fft.rfft2(full.real)[:h, :h]
        assert s.dtype == np.float64 and s.shape == (h, h)
        assert np.max(np.abs(s - want)) <= ulps * np.max(np.abs(want))
        half = mirrored(q.imag, n)[:, :h]  # an even half spectrum: rows mirrored, columns 0..n/2
        back = space.irfft(q.imag.copy())
        want = np.fft.irfft2(half, s=(n, n))[:h, :h]
        assert back.dtype == np.float64 and back.shape == (h, h)
        assert np.max(np.abs(back - want)) <= ulps * np.max(np.abs(want))
        assert np.max(np.abs(space.irfft(s) - w)) <= ulps * np.max(np.abs(w))

    @settings(max_examples=12, deadline=None)
    @given(sizes, seeds)
    def test_weighted_sums_are_the_full_sums(self, n, seed):
        full, q = even_samples(n, seed)
        g = Grid2D(n, 10.0)
        space = Quarter(g)
        a, b = FieldTerms(q, space), FieldTerms(full, g)
        for name in ("mass", "l4", "grad"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= 1e-14 * y, name
        assert abs(a.second_moment.value - b.second_moment.value) <= 1e-14 * b.second_moment.value
        assert a.sup == b.sup
        for p in (OperatorParams(1, 1.0), OperatorParams(-1, 2.5)):
            scale = b.l4 * (1 + p.gamma)  # |quartic| is at most (1 + gamma) times L4
            assert abs(a.quartic(p) - b.quartic(p)) <= 1e-14 * scale
            lf = b.potential(p)
            assert np.max(np.abs(a.potential(p) - lf[: n // 2 + 1, : n // 2 + 1])) <= (
                1e-13 * np.max(np.abs(lf)))

    @pytest.mark.parametrize("n, box", [(8, 3.0), (64, 12.0), (256, 2.5), (512, 20.0)])
    def test_symbol_is_bitwise_the_corner_of_the_grids(self, n, box):
        g = Grid2D(n, box)
        b_half = Quarter(g).b_half
        assert "b_half" not in vars(g)
        assert np.array_equal(b_half, g.b_half[: n // 2 + 1])
        assert not b_half.flags.writeable

    def test_edge_of_the_box_is_read_on_the_quarter(self):
        # the full grid's last row and column, index n-1, are the quarter's index 1
        g = Grid2D(64, 12.0)
        u = gaussian_field(g, width=0.8).values
        h = g.n // 2 + 1
        assert FieldTerms(u[:h, :h].copy(), Quarter(g)).second_moment.boundary_ok
        u[1, 20] = u[-1, 20] = 1e-3
        assert not FieldTerms(u[:h, :h].copy(), Quarter(g)).second_moment.boundary_ok
        assert not FieldTerms(u, g).second_moment.boundary_ok

    def test_the_grid_has_one_quarter_of_read_only_arrays(self):
        g = Grid2D(64, 12.0)
        assert g.quarter is g.quarter
        arrays = {name: v for name, v in vars(g.quarter).items() if isinstance(v, np.ndarray)}
        assert {"x", "k", "b_half", "weight"} <= arrays.keys()
        assert not any(a.flags.writeable for a in arrays.values())


class TestQuarterOnThreads:
    @pytest.mark.parametrize("n", [64, 128])
    def test_four_threads_on_one_quarter_get_the_serial_bits(self, n):
        # with a switch forced every microsecond, four threads transform on
        # the grid's one Quarter at once; each call has its own work buffer
        q = Grid2D(n, 10.0).quarter
        inputs = [even_samples(n, seed)[1] for seed in range(4)]
        calls = {
            "fft": lambda a: q.fft(a, np.empty_like(a)),
            "ifft_in_place": lambda a: q.ifft_in_place(a.copy()),
            "rfft": lambda a: q.rfft(a.real),
            "irfft": lambda a: q.irfft(a.imag),
        }
        want = {(name, i): call(a) for name, call in calls.items() for i, a in enumerate(inputs)}
        done, wrong = [], []

        def work(i):
            for _ in range(20):
                for name, call in calls.items():
                    if not np.array_equal(call(inputs[i]), want[name, i]):
                        wrong.append((name, i))
            done.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1, 2, 3] and wrong == []


def on_two_threads(read):
    """Run ``read(0)`` and ``read(1)`` on two threads and wait for both."""
    threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
    assert not any(thread.is_alive() for thread in threads)


class TestFieldTermsOnThreads:
    def test_two_threads_get_the_serial_cached_terms(self):
        # each thread reads the cached terms of its own FieldTerms and gets
        # the bits of a serial read
        g = Grid2D(16, 5.0)
        values = [gaussian_field(g, width=w).values for w in (1.0, 1.5)]
        terms = [FieldTerms(v, g) for v in values]
        got = [None, None]

        def read(i):
            got[i] = terms[i].rho, terms[i].grad, terms[i].quartic(OperatorParams(1, 1.0))

        on_two_threads(read)
        for v, (rho, grad, quartic) in zip(values, got):
            want = FieldTerms(v, g)
            assert np.array_equal(rho, density(v)) and grad == want.grad
            assert quartic == want.quartic(OperatorParams(1, 1.0))


class TestGridMultipliersOnThreads:
    def test_two_threads_get_the_serial_read_only_symbol(self):
        # two threads read the symbol of one grid that has not built it yet;
        # each gets the serial bits, read-only
        g = Grid2D(64, 12.0)
        got = [None, None]

        def read(i):
            got[i] = g.b_half

        on_two_threads(read)
        want = Grid2D(64, 12.0).b_half
        for b in got:
            assert np.array_equal(b, want) and not b.flags.writeable
        assert not g.b_half.flags.writeable and not g.ksq.flags.writeable


class TestScalingLaws:
    def test_functional_scaling_under_dilation(self):
        # v(x) = rho u(rho x) on the grid with box/rho: mass invariant,
        # grad and quartic scale by rho^2.
        g = Grid2D(128, 18.0)
        u = gaussian_field(g, amplitude=1.4)
        p = OperatorParams(1, 1.0)
        rho = 2.0
        g2 = Grid2D(128, 18.0 / rho)
        v = Field(g2, rho * u.values)
        assert abs(mass(v) - mass(u)) <= 1e-10 * mass(u)
        assert abs(gradient_norm_sq(v) - rho**2 * gradient_norm_sq(u)) <= 1e-10 * gradient_norm_sq(u)
        assert abs(quartic_term(v, p) - rho**2 * quartic_term(u, p)) <= 1e-10 * abs(quartic_term(u, p))
        assert abs(energy(v, p) - rho**2 * energy(u, p)) <= 1e-10 * max(abs(energy(u, p)), 1.0)


class TestSampleScaled:
    def test_identity_reproduces_samples(self):
        g = Grid2D(32, 6.0)
        rng = np.random.default_rng(41)
        u = Field(g, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
        out = sample_scaled(u, g, 1.0)
        assert np.max(np.abs(out - u.values)) <= 1e-12 * np.max(np.abs(u.values))

    def test_scaled_gaussian_evaluation(self):
        g = Grid2D(256, 20.0)
        u = gaussian_field(g)
        target = Grid2D(128, 8.0)
        got = sample_scaled(u, target, 0.5)
        y1, y2 = target.coords()
        want = np.exp(-((0.5 * y1) ** 2 + (0.5 * y2) ** 2) / 2)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_grid_mismatch_raises(self):
        from dsbu.exact import pde_residual

        g = Grid2D(16, 4.0)
        other = Grid2D(16, 5.0)
        u = Field(g, np.ones((16, 16)))
        v = Field(other, np.ones((16, 16)))
        with pytest.raises(GridMismatchError):
            pde_residual(u, v, u, 1e-3, OperatorParams(1, 1.0))
