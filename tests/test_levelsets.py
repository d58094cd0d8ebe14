import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nestor.errors import EmptyBand
from nestor.geometry import (Quadrature, TargetInterval, annulus_domain,
                             box_domain, interval_domain, paraboloid_domain)
from nestor import levelsets
from nestor.levelsets import (grad_h, is_tangential, level_set, sublevel_mass,
                              surface_integral)
from nestor.model import Model, target_cdf
from nestor.surplus import arc_surplus, bilinear_surplus


@pytest.fixture(scope="module")
def seg1d():
    return Model(interval_domain(), TargetInterval(0, 1),
                 bilinear_surplus([1.0]))


@pytest.fixture(scope="module")
def square():
    return Model(box_domain([0, 0], [1, 1]), TargetInterval(0, 1),
                 bilinear_surplus([1, 0]), quadrature=Quadrature("tensor", 256))


@pytest.fixture(scope="module")
def bowl():
    return Model(paraboloid_domain(2), TargetInterval(0, 1),
                 bilinear_surplus([1, 0]))


@pytest.fixture(scope="module")
def disk():
    return Model(annulus_domain(0.0), TargetInterval(-np.pi, np.pi),
                 arc_surplus())


@pytest.fixture(scope="module")
def cube():
    return Model(box_domain([0, 0, 0], [1, 1, 1]), TargetInterval(0, 1),
                 bilinear_surplus([1, 0, 0]), quadrature=Quadrature("tensor", 24))


@pytest.fixture(scope="module")
def square_mc():
    return Model(box_domain([0, 0], [1, 1]), TargetInterval(0, 1),
                 bilinear_surplus([1, 0]),
                 quadrature=Quadrature("monte-carlo", 20_000, seed=1))


@pytest.mark.parametrize("name, y, k, auto", [
    ("square", 0.5, 0.5, "contour2d"),
    ("bowl", 0.3, 0.5, "contour2d"),
    ("disk", 0.0, 0.0, "contour2d"),
    ("seg1d", 0.5, 0.5, "band"),
    ("cube", 0.5, 0.5, "band"),
    ("square_mc", 0.5, 0.5, "band"),
])
def test_level_set_sampler(request, name, y, k, auto):
    model = request.getfixturevalue(name)
    assert level_set(model, y, k).estimator == auto
    estimators = ["band", "contour2d"] if auto == "contour2d" else ["band"]
    for est in estimators:
        ls = level_set(model, y, k, estimator=est)
        assert ls.estimator == est
        assert ls.measure.sum() == surface_integral(model, y, k,
                                                    estimator=est).value
        assert ls.points.shape == (ls.measure.size, model.domain.dim)
        with pytest.raises(EmptyBand):
            level_set(model, y, 50.0, estimator=est)
    if auto == "band":
        with pytest.raises(ValueError):
            level_set(model, y, k, estimator="contour2d")


def test_sublevel_mass_examples(seg1d, bowl):
    assert abs(sublevel_mass(seg1d, 0.5, 0.3) - 0.3) < 1e-6
    assert abs(sublevel_mass(bowl, 0.7, 0.25) - 0.25 ** 1.5) < 1e-3
    sl = bowl.slice_at(0.7)
    assert sublevel_mass(bowl, 0.7, float(np.min(sl.sy)) - 1.0) == 0.0
    assert abs(sublevel_mass(bowl, 0.7, float(np.max(sl.sy)) + 1.0) - 1.0) < 1e-12


def test_sublevel_mass_monotone_in_k(bowl):
    ks = np.linspace(-0.1, 1.1, 57)
    vals = sublevel_mass(bowl, 0.4, ks)
    assert np.all(np.diff(vals) >= -1e-12)  # monotone up to roundoff
    assert np.all((vals >= 0) & (vals <= 1 + 1e-12))


_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def sublevel_levels(model, y, lo_mass, hi_mass):
    # The two levels of ``levelsets._invert_sublevel``.  Hypothesis draws a
    # derandomized test's examples from a digest of its source, so the test
    # below calls this name to keep the examples it has always drawn: its
    # strict minimality and maximality checks fail on examples whose target
    # ties a partial mass sum to within rounding (see CHANGES.md).
    return levelsets._invert_sublevel(model, y, lo_mass, hi_mass)[0]


# ``request`` only looks up module-scoped fixtures, so it holds no state
# between examples
@pytest.mark.parametrize("name", ["seg1d", "bowl", "square_mc"])
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(y=st.floats(0.0, 1.0), a=_unit, b=_unit)
def test_sublevel_levels_invert_the_mass(request, name, y, a, b):
    model = request.getfixturevalue(name)
    lo, hi = min(a, b), max(a, b)
    lower, upper = sublevel_levels(model, y, lo, hi)
    sl = model.slice_at(y)
    step = 1e-9 * float(np.ptp(sl.sy))
    assert sublevel_mass(model, y, lower) >= lo - 1e-12
    assert sublevel_mass(model, y, lower - step) < lo  # lower is minimal
    assert sublevel_mass(model, y, upper) <= hi + 1e-12
    assert sublevel_mass(model, y, upper + step) > hi  # upper is maximal
    if sl.span is not None:
        ks = np.sort(np.concatenate([
            [lower, upper],
            np.linspace(sl.sy.min() - sl.span.max(),
                        sl.sy.max() + sl.span.max(), 257)]))
        assert np.all(np.diff(sublevel_mass(model, y, ks)) >= -1e-12)
        assert lower <= upper


def _invert_running_max(knots, mass, target, side):
    """Reference inversion: searchsorted on the running maximum of the
    knot masses."""
    mass = np.maximum.accumulate(mass)
    j = int(np.searchsorted(mass, target, side))
    if j in (0, mass.size):
        return -np.inf if j == 0 else np.inf
    a, b = knots[j - 1], knots[j]
    if a == b and side == "right":
        return float(np.nextafter(a, -np.inf))
    return float(a + (target - mass[j - 1]) / (mass[j] - mass[j - 1]) * (b - a))


@pytest.mark.parametrize("name", ["seg1d", "bowl", "cube", "disk", "square_mc"])
def test_sublevel_levels_match_running_max_reference(request, name):
    # tensor grids in 1, 2 and 3 dimensions, and a Monte Carlo grid, whose
    # binary sublevel mass makes every knot a jump; the reference inverts
    # the knots of the k window the levels came from
    model = request.getfixturevalue(name)
    total = float(np.sum(model.point_mass))
    rng = np.random.default_rng(5)
    lo_t, hi_t = model.target.y_lo, model.target.y_hi
    n_windowed = 0
    for y in lo_t + (hi_t - lo_t) * np.array([0.0, 0.13, 0.5, 0.91, 1.0]):
        sl = model.slice_at(float(y))
        # knot masses of a window around half the mass, which the windows
        # of nearby targets often share
        _, window, _ = levelsets._invert_sublevel(model, y, total / 2,
                                                  total / 2)
        mass = levelsets._mass_knots(model, sl, *window)[1]
        targets = np.concatenate([[0.0, total, np.nextafter(total, 0.0)],
                                  mass[rng.integers(0, mass.size, 8)],
                                  total * rng.random(8)])
        for lo in targets:
            for hi in targets[targets >= lo][:4]:
                levels, window, _ = levelsets._invert_sublevel(model, y,
                                                               lo, hi)
                knots, mass = levelsets._mass_knots(model, sl, *window)
                assert levels == (
                    _invert_running_max(knots, mass, lo, "left"),
                    _invert_running_max(knots, mass, hi, "right"))
                n_windowed += window != (-np.inf, np.inf)
    assert n_windowed > 0


@pytest.fixture(scope="module")
def tilted():
    # level sets cross the x1-major lattice at a slant, so the ramp knots
    # come in no presorted runs
    return Model(box_domain([0, 0], [1, 1]), TargetInterval(0, 1),
                 bilinear_surplus([1, 0.5]), quadrature=Quadrature("tensor", 128))


def _full_levels(model, y, lo, hi):
    knots, mass = levelsets._mass_knots(model, model.slice_at(y))
    return (levelsets._invert_knots(knots, mass, lo, "left"),
            levelsets._invert_knots(knots, mass, hi, "right"))


@pytest.mark.parametrize("name", ["seg1d", "bowl", "cube", "disk",
                                  "square_mc", "tilted"])
def test_windowed_levels_agree_with_the_full_knots(request, monkeypatch, name):
    model = request.getfixturevalue(name)
    total = float(np.sum(model.point_mass))
    rng = np.random.default_rng(11)
    n_windowed = 0
    for y in model.target.interior_grid(65):
        y = float(y)
        g = target_cdf(model, y)
        for lo, hi in [(g - 1e-6, g + 1e-6), (0.0, total),
                       tuple(np.sort(total * rng.random(2)))]:
            levels, window, _ = levelsets._invert_sublevel(model, y, lo, hi)
            n_windowed += window != (-np.inf, np.inf)
            for k, k_full in zip(levels, _full_levels(model, y, lo, hi)):
                if np.isinf(k) or np.isinf(k_full):
                    assert k == k_full
                else:
                    assert abs(sublevel_mass(model, y, k)
                               - sublevel_mass(model, y, k_full)) <= 1e-12 * total
    assert n_windowed > 0

    # windows that miss a level: wholly below or above both, cutting off
    # the lower one, ending short of the upper one by a quarter span, or
    # holding no point at all
    y = float(model.target.interior_grid(65)[40])
    g = target_cdf(model, y)
    lo, hi = g - 1e-6, g + 1e-6
    lower, upper = _full_levels(model, y, lo, hi)
    sl = model.slice_at(y)
    step = 0.25 * float(np.max(sl.span)) if sl.span is not None \
        else 1e-3 * float(np.ptp(sl.sy))
    for window in [(upper + step, np.inf), (-np.inf, lower - step),
                   (lower + step, upper + 1.0), (lower - 1.0, upper - step),
                   (np.max(sl.sy) + 1.0, np.max(sl.sy) + 2.0)]:
        monkeypatch.setattr(levelsets, "_sublevel_window",
                            lambda *args, w=window: w)
        assert levelsets._invert_sublevel(model, y, lo, hi)[:2] == (
            (lower, upper), (-np.inf, np.inf))


def test_invert_knots_reads_through_a_rounding_dip():
    # knot 3 dips one ulp below knot 2, as a running sum can by rounding;
    # knots 4 and 5 sit at one k (a jump).  The table holds the running
    # maximum of the masses, which the reference takes itself
    knots = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 4.0, 5.0])
    mass = np.array([0.0, 0.3, 0.5, np.nextafter(0.5, 0.0), 0.7, 0.9, 1.0])
    assert np.any(np.diff(mass) < 0)
    values = np.concatenate([mass, [-1.0, 0.1, 0.4, 0.6, 0.8, 0.95, 2.0]])
    targets = np.concatenate([values, np.nextafter(values, -np.inf),
                              np.nextafter(values, np.inf)])
    for target in targets:
        for side in ("left", "right"):
            assert levelsets._invert_knots(
                knots, np.maximum.accumulate(mass), target, side) == \
                _invert_running_max(knots, mass, target, side), (target, side)


@pytest.mark.parametrize("name", ["seg1d", "bowl", "cube", "disk", "square_mc"])
def test_mass_knots_make_one_nondecreasing_table(request, name):
    # tensor ramps in 1, 2 and 3 dimensions and Monte Carlo atoms: the full
    # knots, a window around half the mass and a window holding no point
    model = request.getfixturevalue(name)
    total = float(np.sum(model.point_mass))
    y = float(model.target.interior_grid(65)[40])
    sl = model.slice_at(y)
    top = float(np.max(sl.sy))
    windows = [(-np.inf, np.inf), (top + 1.0, top + 2.0),
               levelsets._invert_sublevel(model, y, total / 2, total / 2)[1]]
    targets = total * np.linspace(-0.1, 1.1, 97)
    for window in windows:
        knots, mass = levelsets._mass_knots(model, sl, *window)
        assert knots.shape == mass.shape, window
        assert np.all(np.diff(knots) >= 0) and np.all(np.diff(mass) >= 0)
        for side in ("left", "right"):
            levels = levelsets._invert_knots(knots, mass, targets, side)
            assert levels.tobytes() == np.array([
                levelsets._invert_knots(knots, mass, t, side)
                for t in targets]).tobytes(), (window, side)
    # the half-mass window is a true window, not the full fallback
    assert knots.size > 0 and windows[-1] != (-np.inf, np.inf)


def split_function(model, y, k):
    """h(y, k) = mu[{s_y <= k}] - G(y)."""
    return sublevel_mass(model, y, k) - target_cdf(model, y)


def test_split_function_examples(seg1d, bowl):
    assert abs(split_function(seg1d, 0.5, 0.5)) < 1e-6
    for y in (0.2, 0.5, 0.9):
        assert abs(split_function(bowl, y, y ** (2.0 / 3.0))) < 2e-3
    sl = bowl.slice_at(0.5)
    top = split_function(bowl, 0.5, float(np.max(sl.sy)) + 1.0)
    assert abs(top - (1.0 - target_cdf(bowl, 0.5))) < 1e-12
    assert top >= 0


def test_surface_integral_examples(square, bowl, disk):
    assert abs(surface_integral(square, 0.5, 0.5).value - 1.0) < 1e-3
    res = surface_integral(bowl, 0.3, 0.5)
    assert abs(res.value - 2 * np.sqrt(2 * 0.5)) < 0.01 * 2
    assert res.band_count > 0 and res.estimator == "band"
    chord = surface_integral(disk, 0.0, 0.0).value
    assert abs(chord - 2.0) < 0.02
    chord5 = surface_integral(disk, 0.0, 0.5).value
    assert abs(chord5 - 2 * np.sqrt(1 - 0.25)) < 0.02


def test_band_and_contour_estimators_agree(square, bowl, disk):
    cases = [(square, 0.5, 0.5), (bowl, 0.3, 0.5), (bowl, 0.8, 0.2),
             (disk, 0.0, 0.0), (disk, 1.0, 0.4)]
    for model, y, k in cases:
        band = surface_integral(model, y, k, estimator="band").value
        cont = surface_integral(model, y, k, estimator="contour2d").value
        assert abs(band - cont) <= 0.01 * max(abs(cont), 1e-12)


def test_surface_integral_with_integrand(bowl):
    res = surface_integral(bowl, 0.3, 0.5, integrand=lambda x: x[:, 0])
    # chord at x1 = 0.5: integral of x1 over it is 0.5 * length
    assert abs(res.value - 0.5 * 2 * np.sqrt(2 * 0.5)) < 0.02


def test_empty_band(bowl):
    with pytest.raises(EmptyBand):
        surface_integral(bowl, 0.5, 5.0)
    with pytest.raises(EmptyBand):
        surface_integral(bowl, 0.5, 5.0, estimator="contour2d")


def test_grad_h_examples(seg1d, bowl):
    gh = grad_h(seg1d, 0.5, 0.5)
    assert abs(gh.h_k - 1.0) < 1e-6
    assert abs(gh.h_y + 1.0) < 1e-6
    gh = grad_h(bowl, 0.5, 0.25)
    assert abs(gh.h_k - 1.5 * np.sqrt(0.25)) < 0.01
    assert abs(gh.h_y + 1.0) < 1e-9  # s_yy = 0 so h_y = -g exactly
    assert gh.h_k >= 0


def test_grad_h_band_estimator_too(bowl):
    gh = grad_h(bowl, 0.5, 0.25, estimator="band")
    assert abs(gh.h_k - 0.75) < 0.01
    assert gh.h_k >= 0


def test_grad_h_matches_finite_differences(bowl, disk):
    for model, y, k in [(bowl, 0.5, 0.4), (bowl, 0.25, 0.3), (disk, 0.7, 0.2)]:
        gh = grad_h(model, y, k)
        dk = 2e-3
        dy = 2e-3
        fd_k = (split_function(model, y, k + dk)
                - split_function(model, y, k - dk)) / (2 * dk)
        fd_y = (split_function(model, y + dy, k)
                - split_function(model, y - dy, k)) / (2 * dy)
        scale = max(abs(gh.h_k), abs(gh.h_y), 1e-9)
        assert abs(fd_k - gh.h_k) <= 5e-3 * scale + 5e-3
        assert abs(fd_y - gh.h_y) <= 5e-3 * scale + 5e-3


def test_coarea_consistency(bowl):
    # integral of h_k over [k1, k2] matches the sublevel-mass increment
    k_grid = np.linspace(0.2, 0.6, 41)
    hk = np.array([grad_h(bowl, 0.5, k, estimator="band").h_k for k in k_grid])
    integral = np.trapezoid(hk, k_grid)
    increment = sublevel_mass(bowl, 0.5, 0.6) - sublevel_mass(bowl, 0.5, 0.2)
    assert abs(integral - increment) <= 0.02 * increment


def test_level_set_sizes_examples(square, bowl):
    assert abs(level_set(bowl, 0.3, 0.5, "band").area - 2.0) < 0.02
    assert abs(level_set(square, 0.5, 0.5, "band").area - 1.0) < 1e-3
    with pytest.raises(EmptyBand):
        level_set(bowl, 0.5, 5.0, "band")


def test_closed_contour_has_no_ends():
    # level sets of s_y = x1^2 + x2^2 are circles strictly inside the box
    from nestor.surplus import polynomial_surplus
    rings = polynomial_surplus([(1.0, (2, 0), 1), (1.0, (0, 2), 1)], 2)
    model = Model(box_domain([-1, -1], [1, 1]), TargetInterval(0.5, 1.0),
                  rings, quadrature=Quadrature("tensor", 128))
    # radius-0.5 circle: every contour endpoint is shared by two segments
    ends = levelsets._contour_segments(model, [0.75], [0.25])[0][0].reshape(-1, 2)
    _, counts = np.unique(np.rint(ends * 1e9), axis=0, return_counts=True)
    assert np.all(counts == 2)
    assert abs(level_set(model, 0.75, 0.25, "band").area - np.pi) < 0.03


@pytest.mark.parametrize("k", [1e-3, -1e-3])
def test_saddle_cell_keeps_quadrants_apart(k):
    # s_y = x1 x2 on a 7x7 grid: the middle cell is centred on the saddle
    # at the origin and crossed on all four edges; the centre-average rule
    # must pair its crossings so no segment jumps between quadrants
    from nestor.surplus import polynomial_surplus
    model = Model(box_domain([-1, -1], [1, 1]), TargetInterval(0.5, 1.5),
                  polynomial_surplus([(1.0, (1, 1), 1)], 2),
                  quadrature=Quadrature("tensor", 7))
    seg = levelsets._contour_segments(model, [1.0], [k])[0][0]
    assert np.all(np.sign(seg[:, 0, :]) == np.sign(seg[:, 1, :]))


@pytest.fixture(scope="module")
def pie12():
    from nestor import scenarios as sc
    return sc.build("pie-slice", theta0=1.2)


@pytest.mark.parametrize("name", ["par2", "pie12", "ball"])
def test_batched_contours_equal_single_node_calls(name, request):
    # one contour pass over the 65 solved nodes gives each node the very
    # segments, in the same order, of a one-node call; a level beyond the
    # range of s_y gets an empty slot and leaves its neighbours in place
    from nestor.solver import solve_split_curve
    model = request.getfixturevalue(name).model
    curve = solve_split_curve(model)
    ys = np.insert(curve.y_grid, 32, curve.y_grid[32])
    ks = np.insert(curve.k_plus, 32, np.max(curve.k_plus) + 1e3)
    batched, clipped = levelsets._contour_segments(model, ys, ks)
    assert len(batched) == clipped.size == 66
    assert batched[32].shape == (0, 2, 2) and clipped[32] == 0
    for i, (y, k) in enumerate(zip(ys, ks)):
        (seg,), (n_clipped,) = levelsets._contour_segments(model, [y], [k])
        assert np.array_equal(batched[i], seg)
        assert clipped[i] == n_clipped
    assert np.sum(clipped) > 0


def test_tangential_detection(square, bowl):
    assert is_tangential(square, 0.5, 0.002)       # level hugging a face
    assert not is_tangential(square, 0.5, 0.5)
    assert not is_tangential(bowl, 0.5, 0.63)
    assert is_tangential(bowl, 0.5, 0.002)         # short chord at the vertex


def test_one_dimensional_sizes(seg1d):
    # counting measure of one point
    assert abs(level_set(seg1d, 0.5, 0.5, "band").area - 1.0) < 1e-9
