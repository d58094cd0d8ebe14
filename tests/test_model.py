import numpy as np
import pytest

from nestor.errors import OutOfRange
from nestor.geometry import (Quadrature, TargetInterval, annulus_domain,
                             box_domain, interval_domain, paraboloid_domain)
from nestor.model import (DensityPair, Model, certify_nondegeneracy,
                          region_mass, target_cdf, target_quantile)
from nestor.surplus import arc_surplus, bilinear_surplus, polynomial_surplus


@pytest.fixture(scope="module")
def square():
    return Model(box_domain([0, 0], [1, 1]), TargetInterval(0, 1),
                 bilinear_surplus([1, 0]), quadrature=Quadrature("tensor", 128))


@pytest.fixture(scope="module")
def bowl():
    return Model(paraboloid_domain(2), TargetInterval(0, 1),
                 bilinear_surplus([1, 0]), quadrature=Quadrature("tensor", 256))


def test_normalization(square, bowl):
    for model in (square, bowl):
        total = region_mass(model, lambda x: np.ones(len(x), bool))
        assert abs(total - 1.0) < 1e-12  # normalized against its own grid


def test_region_mass_examples(square, bowl):
    half = region_mass(square, lambda x: x[:, 0] <= 0.5)
    assert abs(half - 0.5) < 1e-3
    # cumulative cross-section of the bowl: mass{x1 <= k} = k^{3/2}
    quarter = region_mass(bowl, lambda x: x[:, 0] <= 0.25)
    assert abs(quarter - 0.25 ** 1.5) < 1e-3
    assert region_mass(square, lambda x: np.zeros(len(x), bool)) == 0.0


def test_region_mass_matches_monte_carlo_oracle(bowl):
    rng = np.random.default_rng(11)
    n = 400_000
    cand = np.stack([rng.random(n), (2 * rng.random(n) - 1) * np.sqrt(2)],
                    axis=1)
    keep = cand[:, 1] ** 2 / 2 < cand[:, 0]
    mc = np.mean(cand[keep][:, 0] <= 0.25)
    quad = region_mass(bowl, lambda x: x[:, 0] <= 0.25)
    assert abs(quad - mc) < 5e-3


def test_certify_nondegeneracy_examples(square, bowl):
    assert square.certificate.passed
    assert abs(square.certificate.min_grad_norm - 1.0) < 1e-12

    ball = Model(annulus_domain(0.0), TargetInterval(-np.pi, np.pi),
                 arc_surplus(), quadrature=Quadrature("tensor", 128))
    cert = ball.certificate
    assert cert.passed and abs(cert.min_grad_norm - 1.0) < 1e-9

    # s_y = y (x1^2 + x2^2): gradient vanishes at the origin
    vanishing = polynomial_surplus([(1.0, (2, 0), 1), (1.0, (0, 2), 1)], 2)
    degenerate = Model(box_domain([-1, -1], [1, 1]), TargetInterval(0, 1),
                       vanishing, quadrature=Quadrature("tensor", 64))
    cert = degenerate.certificate
    assert not cert.passed
    x_w, _ = cert.witness
    assert np.linalg.norm(x_w) < 1e-3


def test_certificate_polish_finds_an_off_grid_zero():
    # s_y = y |x - c|^2 on a coarse 16^2 box: grad_x s_y vanishes only at c,
    # which lies between the quadrature points
    c = np.array([0.0037, -0.0051])
    shifted = polynomial_surplus([(1.0, (2, 0), 1), (-2 * c[0], (1, 0), 1),
                                  (1.0, (0, 2), 1), (-2 * c[1], (0, 1), 1)], 2)
    model = Model(box_domain([-1, -1], [1, 1]), TargetInterval(0, 1), shifted,
                  quadrature=Quadrature("tensor", 16))
    assert np.min(np.linalg.norm(model.grid.points - c, axis=1)) > 0.05
    cert = model.certificate
    assert not cert.passed
    assert np.linalg.norm(cert.witness[0] - c) < 1e-6


def test_target_cdf_examples(square):
    assert abs(target_cdf(square, 0.25) - 0.25) < 1e-10
    lin = Model(interval_domain(), TargetInterval(0, 1), bilinear_surplus([1.0]),
                DensityPair(g=lambda y: 2 * np.maximum(y, 1e-300)))
    assert abs(target_cdf(lin, 0.5) - 0.25) < 1e-9
    expo = Model(interval_domain(), TargetInterval(0, 1), bilinear_surplus([1.0]),
                 DensityPair(g=lambda y: np.exp(-y)))
    # adaptive quadrature vs the closed form (1 - e^{-1/2}) / (1 - e^{-1})
    assert abs(target_cdf(expo, 0.5) - 0.6224593312018546) < 1e-10
    assert abs(target_cdf(expo, 0.0)) < 1e-12
    assert abs(target_cdf(expo, 1.0) - 1.0) < 1e-12


def test_target_cdf_monotone_and_bounded(square):
    ys = np.sort(np.random.default_rng(0).random(257))
    vals = target_cdf(square, ys)
    assert np.all(np.diff(vals) >= 0)
    with pytest.raises(OutOfRange):
        target_cdf(square, 1.2)
    q = target_quantile(square, 0.25)
    assert abs(q - 0.25) < 1e-10


def test_determinism_bitwise():
    def make():
        return Model(paraboloid_domain(2), TargetInterval(0, 1),
                     bilinear_surplus([1, 0]),
                     quadrature=Quadrature("tensor", 64))
    a, b = make(), make()
    assert np.array_equal(a.f_vals, b.f_vals)
    assert np.array_equal(a.point_mass, b.point_mass)
    ca, cb = certify_nondegeneracy(a), certify_nondegeneracy(b)
    assert ca.min_grad_norm == cb.min_grad_norm


@pytest.mark.parametrize("dim, quadrature", [
    (1, Quadrature("tensor", 512)), (2, Quadrature("tensor", 96)),
    (3, Quadrature("tensor", 24)), (4, Quadrature("monte-carlo", 20_000, seed=2)),
])
def test_slice_gradient_norm_matches_linalg_norm(dim, quadrature):
    # a surplus whose x-gradient varies from point to point in every axis
    terms = [(1.0, (1,) + (0,) * (dim - 1), 1)]
    terms += [(0.3 + 0.2 * j, tuple(2 if i == j else 0 for i in range(dim)), 2)
              for j in range(dim)]
    model = Model(box_domain([0] * dim, [1] * dim), TargetInterval(0, 1),
                  polynomial_surplus(terms, dim), quadrature=quadrature)
    for y in (0.2, 0.7):
        sl = model.slice_at(y)
        assert np.array_equal(sl.gnorm, np.linalg.norm(sl.grad, axis=1))


def test_density_positivity_enforced():
    with pytest.raises(ValueError):
        Model(interval_domain(), TargetInterval(0, 1), bilinear_surplus([1.0]),
              DensityPair(f=lambda x: x[:, 0] - 0.5))
    with pytest.raises(ValueError):
        Model(interval_domain(), TargetInterval(0, 1), bilinear_surplus([1.0]),
              DensityPair(g=lambda y: y - 0.5))
