"""Convergence-lab tests: objectives, the bare update, alignment, bounds."""

import dataclasses
import re

import numpy as np
import pytest

from manolab.convergence import (
    CONVERGENCE_CSV_HEADER,
    ConvergenceRun,
    SmoothObjective,
    _alignment,
    _column_tangent,
    alignment_check,
    mano_simple_step,
    quadratic_objective,
    run_convergence_experiment,
    softmax_objective,
)
from manolab.manifold import DegenerateSliceError, oblique_normalize, tangent_part
from manolab.optimizers import (
    RESCALE_COEFF,
    ManoConfig,
    OptimizerState,
    mano_step,
)
from manolab.tensor import EPS_DIV, ShapeMismatchError, _norm

from oracles import finite_difference_grads, fsum_norm, mano_simple_oracle
from test_manifold import (
    EDGE_CASES,
    _edge_case,
    _first_degenerate,
    _masked_slice_unit,
)


def _masked_alignment(grad, v_hat, v_norms):
    """``_alignment``'s values in the masked form: gamma over the columns
    with gradient norm at or above EPS_DIV (1 if none), and the sum of
    the tangent norms at or above EPS_DIV."""
    g_norms = _norm(grad, 0)
    active = g_norms >= EPS_DIV
    gamma = float(np.min(v_norms[active] / g_norms[active])) if np.any(active) else 1.0
    inner = float(np.sum(grad * v_hat))
    grad_fro = float(_norm(grad))
    norm_sum = float(v_norms[v_norms >= EPS_DIV].sum())
    return inner, norm_sum, gamma * grad_fro, gamma, grad_fro


def _masked_check(norms, step=None):
    """Raise as ``check_slices`` does on axis 0, from the masked search;
    with ``step``, as the runner reports it."""
    first = _first_degenerate(norms, 0)
    if first is not None:
        exc = DegenerateSliceError(0, *first)
        if step is None:
            raise exc
        raise RuntimeError(f"experiment aborted at step {step}: {exc}")


def _masked_run(objective, steps, c=1.0):
    """``run_convergence_experiment``'s records, noise-free, with every
    slice divided and searched in the masked form."""
    theta = objective.theta0.copy()
    scale = c / np.sqrt(steps + 1) * np.sqrt(objective.dims[0])
    records = np.empty((4, steps + 1))
    for t in range(steps + 1):
        f_val, grad = objective.evaluate(theta)
        theta_hat, norms = _masked_slice_unit(theta, 0)
        _masked_check(norms, t)
        v_hat, v_norms = _masked_slice_unit(tangent_part(grad, theta_hat, 0), 0)
        inner, _, _, gamma, grad_fro = _masked_alignment(grad, v_hat, v_norms)
        _masked_check(v_norms, t)
        records[:, t] = f_val, grad_fro, inner, gamma
        theta = theta - scale * v_hat
    return records


class TestObjectives:
    def test_quadratic_value_and_gradient(self):
        obj = quadratic_objective(4, 4, seed=3)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((4, 4))
        f, grad = obj.evaluate(theta)
        assert f >= 0.0
        # gradient against central differences
        work = theta.copy()
        fd = finite_difference_grads(lambda: obj.evaluate(work)[0], [work])[0]
        np.testing.assert_allclose(grad, fd, rtol=1e-7, atol=1e-8)

    def test_quadratic_zero_at_target(self):
        """At L = 1 the target can be recovered from any gradient
        evaluation as theta - grad; the objective must vanish there."""
        obj = quadratic_objective(3, 5, seed=9)
        assert obj.smoothness == 1.0
        theta = np.random.default_rng(1).standard_normal((3, 5))
        _, grad = obj.evaluate(theta)
        target = theta - grad
        f, grad_at_target = obj.evaluate(target)
        assert f == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad_at_target, 0.0, atol=1e-12)

    def test_quadratic_start_point_norm_budget(self):
        """The paired start point sits half a norm-growth budget below
        the target: per column, ||target||^2 - ||theta0||^2 == m/2."""
        m, n = 6, 4
        obj = quadratic_objective(m, n, seed=3)
        assert obj.theta0 is not None and obj.theta0.shape == (m, n)
        _, grad = obj.evaluate(obj.theta0)
        target = obj.theta0 - grad
        gap = (target**2).sum(axis=0) - (obj.theta0**2).sum(axis=0)
        np.testing.assert_allclose(gap, m / 2.0, rtol=1e-12)

    def test_quadratic_start_point_norm_budget_scales_with_c(self):
        m = 4
        obj = quadratic_objective(m, m, seed=3, c=2.0)
        _, grad = obj.evaluate(obj.theta0)
        target = obj.theta0 - grad
        gap = (target**2).sum(axis=0) - (obj.theta0**2).sum(axis=0)
        np.testing.assert_allclose(gap, 4.0 * m / 2.0, rtol=1e-12)

    def test_experiment_starts_at_objective_start_point(self):
        obj = quadratic_objective(5, 5, seed=2)
        run = run_convergence_experiment(obj, 10, c=1.0, seed=2)
        f0, _ = obj.evaluate(obj.theta0)
        assert run.f_values[0] == pytest.approx(f0, rel=1e-15)

    def test_softmax_gradient(self):
        obj = softmax_objective(5, 3, n_samples=32, seed=7)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal((5, 3))
        _, grad = obj.evaluate(theta)
        work = theta.copy()
        fd = finite_difference_grads(lambda: obj.evaluate(work)[0], [work])[0]
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_smoothness_constant_covers_observed_ratios(self):
        """||grad(x)-grad(y)|| <= L ||x-y|| on random pairs, with 5%
        slack for the estimate."""
        for obj in (
            quadratic_objective(6, 6, seed=2),
            softmax_objective(6, 4, n_samples=64, seed=2),
        ):
            rng = np.random.default_rng(5)
            for _ in range(20):
                x = rng.standard_normal(obj.dims)
                y = rng.standard_normal(obj.dims)
                gx = obj.evaluate(x)[1]
                gy = obj.evaluate(y)[1]
                ratio = np.linalg.norm(gx - gy) / np.linalg.norm(x - y)
                assert ratio <= obj.smoothness * 1.05

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: quadratic_objective(4, 4, seed=3),
            lambda: softmax_objective(4, 3, n_samples=32, seed=3),
        ],
        ids=["quadratic", "softmax"],
    )
    def test_objective_is_non_negative(self, make, scale):
        """``bound_check`` takes 0 as the lower bound of f, so every
        objective must stay at or above it, also far from the start."""
        obj = make()
        rng = np.random.default_rng(4)
        for _ in range(20):
            f, _ = obj.evaluate(scale * rng.standard_normal(obj.dims))
            assert f >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic_objective(0, 4)
        with pytest.raises(ValueError):
            softmax_objective(4, 1)

    @pytest.mark.parametrize("smoothness", [0.0, -1.0, np.nan])
    def test_smoothness_must_be_positive(self, smoothness):
        """The smoothness enters the bound as a Lipschitz constant, so
        the objective, where it enters the program, rejects a
        non-positive or NaN one."""
        with pytest.raises(ValueError, match="^smoothness must be positive"):
            SmoothObjective((2, 2), lambda theta: (0.0, theta), smoothness)


class TestManoSimpleStep:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for shape in [(4, 4), (8, 3), (16, 16)]:
            theta = rng.standard_normal(shape)
            grad = rng.standard_normal(shape)
            got = mano_simple_step(theta, grad, 0.05)
            expected = mano_simple_oracle(theta, grad, 0.05)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-13)

    def test_agrees_with_full_step_special_case(self):
        """The full optimizer with momentum 0, decay 0, static axis 0 and
        learning rate eta / RESCALE_COEFF reduces to the bare update."""
        rng = np.random.default_rng(6)
        theta = rng.standard_normal((8, 8))
        grad = rng.standard_normal((8, 8))
        eta = 0.03
        bare = mano_simple_step(theta, grad, eta)
        cfg = ManoConfig(momentum=0.0, weight_decay=0.0, schedule="static")
        full = mano_step(theta, grad, OptimizerState(), cfg, eta / RESCALE_COEFF)
        np.testing.assert_allclose(bare, full, rtol=1e-12, atol=1e-13)

    def test_step_length_is_eta_sqrt_m_per_column_root(self):
        """Each column moves by exactly eta*sqrt(m) in Euclidean norm
        because the applied direction has unit columns."""
        rng = np.random.default_rng(10)
        theta = rng.standard_normal((9, 5))
        grad = rng.standard_normal((9, 5))
        new = mano_simple_step(theta, grad, 0.01)
        moved = np.sqrt(((new - theta) ** 2).sum(axis=0))
        np.testing.assert_allclose(moved, 0.01 * 3.0, rtol=1e-12)

    def test_radial_gradient_raises(self):
        rng = np.random.default_rng(11)
        theta = rng.standard_normal((5, 4))
        hat = oblique_normalize(theta, 0)
        grad = hat * np.array([1.0, 2.0, 3.0, 4.0])[None, :]
        with pytest.raises(DegenerateSliceError):
            mano_simple_step(theta, grad, 0.01)


class TestAlignmentCheck:
    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            theta = rng.standard_normal((8, 8))
            grad = rng.standard_normal((8, 8))
            inner, norm_sum, bound = alignment_check(theta, grad)
            assert inner == pytest.approx(norm_sum, rel=1e-12, abs=1e-12)
            assert inner >= bound - 1e-10

    def test_identity_survives_near_radial_gradient(self):
        """The numerically hostile case: gradients nearly parallel to
        the parameter columns make the tangent part tiny, and a naive
        projection breaks the identity at the 1e-9 level."""
        rng = np.random.default_rng(3)
        theta = rng.standard_normal((16, 16))
        hat = oblique_normalize(theta, 0)
        grad = hat * rng.uniform(0.5, 2.0, 16)[None, :]
        grad = grad + 1e-7 * rng.standard_normal((16, 16))
        inner, norm_sum, bound = alignment_check(theta, grad)
        assert inner == pytest.approx(norm_sum, rel=1e-10)
        assert inner >= bound - 1e-10

    def test_zero_gradient_columns_excluded(self):
        rng = np.random.default_rng(8)
        theta = rng.standard_normal((6, 4))
        grad = rng.standard_normal((6, 4))
        grad[:, 1] = 0.0
        inner, norm_sum, bound = alignment_check(theta, grad)
        assert np.isfinite(bound)
        assert inner == pytest.approx(norm_sum, rel=1e-12)

    def test_all_zero_gradient(self):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((4, 4))
        inner, norm_sum, bound = alignment_check(theta, np.zeros((4, 4)))
        assert inner == 0.0
        assert norm_sum == 0.0
        assert bound == 0.0

    def test_bound_uses_weakest_column(self):
        """With one almost-radial column, gamma collapses and the bound
        becomes loose while the inner product stays positive."""
        rng = np.random.default_rng(14)
        theta = rng.standard_normal((8, 3))
        hat = oblique_normalize(theta, 0)
        grad = rng.standard_normal((8, 3))
        grad[:, 0] = hat[:, 0] + 1e-6 * rng.standard_normal(8)
        inner, _, bound = alignment_check(theta, grad)
        assert bound < 0.01 * inner


class TestFastPathsKeepTheMaskedBits:
    """The convergence iteration masks its columns only when one is
    degenerate or excluded; on the edge cases of ``test_manifold`` it
    raises what the masked form raises and records the same bits."""

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_column_tangent_and_alignment(self, case):
        """Each edge case as the gradient (a zero column is excluded from
        gamma, a degenerate one is left out of the tangent sum), scaled
        so that every column is degenerate, and as theta (whose
        degenerate columns raise)."""
        edge = _edge_case(case)
        other = np.random.default_rng(32).standard_normal(edge.shape)
        for theta, grad in ((other, edge), (other, 1e-31 * edge), (edge, other)):
            norms = _norm(theta, 0)
            try:
                _masked_check(norms)
            except DegenerateSliceError as exc:
                with pytest.raises(DegenerateSliceError, match=re.escape(str(exc))):
                    _column_tangent(theta, grad)
                continue
            v_hat, v_norms = _column_tangent(theta, grad)
            want_hat, want_norms = _masked_slice_unit(
                tangent_part(grad, _masked_slice_unit(theta, 0)[0], 0), 0
            )
            assert v_hat.tobytes() == want_hat.tobytes()
            assert v_norms.tobytes() == want_norms.tobytes()
            got = _alignment(grad, v_hat, v_norms)
            want = _masked_alignment(grad, v_hat, v_norms)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("role", ["theta", "grad"])
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_run(self, case, role):
        """A run whose start point, or whose every gradient, carries the
        edge case: it aborts with the masked form's message, or records
        the masked form's bits."""
        edge = _edge_case(case)
        rng = np.random.default_rng(33)
        if role == "theta":
            theta0, grad = edge, rng.standard_normal(edge.shape)

            def evaluate(theta):
                return 0.0, grad
        else:
            theta0 = rng.standard_normal(edge.shape)

            def evaluate(theta):
                return 0.0, edge + 1e-3 * theta

        obj = SmoothObjective(edge.shape, evaluate, 1.0, theta0=theta0)
        try:
            want = _masked_run(obj, 20)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(exc))}$"):
                run_convergence_experiment(obj, 20)
            return
        run = run_convergence_experiment(obj, 20)
        got = np.array([run.f_values, run.grad_norms, run.inner_products, run.min_sin_phi])
        assert got.tobytes() == want.tobytes()


def _hand_objective(dims=(4, 4), smoothness=1.0):
    return SmoothObjective(
        dims=dims, evaluate=lambda theta: (0.0, theta), smoothness=smoothness
    )


def _hand_run(
    min_sin=(0.5, 0.25), f0=1.0, c=1.0, noise=0.0, **objective
) -> ConvergenceRun:
    """A run at step scale c with one record per entry of ``min_sin``:
    by default one step, so eta = c / sqrt(2), whose minimum gradient
    norm is 1 and gamma 1/4; ``objective`` goes to ``_hand_objective``."""
    rest = len(min_sin) - 1
    return ConvergenceRun(
        objective=_hand_objective(**objective), c=c, noise=noise, seed=0,
        f_values=np.array([f0] + [0.5] * rest),
        grad_norms=np.array([2.0] + [1.0] * rest),
        inner_products=np.array([1.0] + [0.5] * rest),
        min_sin_phi=np.array(min_sin),
    )


def _expected_bound(f0, smoothness, m, gamma, c, steps):
    """(C1 + C2) / sqrt(steps + 1) with C1 = f0 / (sqrt(m) * gamma * c)
    and C2 = smoothness * m^(3/2) * c / (2 * gamma), written out here in
    the operations and order the bound is specified in, so the program's
    bound must match it bit for bit."""
    c1 = f0 / (np.sqrt(m) * gamma * c)
    c2 = smoothness * m**1.5 * c / (2.0 * gamma)
    return float((c1 + c2) / np.sqrt(steps + 1))


class TestBoundCheck:
    """The run judges its own bound from its own record; each of its
    five outcomes, and the bound's arithmetic."""

    @pytest.mark.parametrize(
        "settings", [{"noise": 0.1}, {"dims": (4, 3)}], ids=["noisy", "rectangular"]
    )
    def test_skipped(self, settings):
        assert _hand_run(**settings).bound_check() == ("skipped", None)

    def test_vacuous_from_one_zero_sine(self):
        assert _hand_run(min_sin=(0.5, 0.0)).bound_check() == ("vacuous", None)

    def test_holds(self):
        # C1 = 1 / (2 * 0.25) = 2, C2 = 8 / (2 * 0.25) = 16: 18 / sqrt(2) >= 1
        expected = _expected_bound(1.0, 1.0, 4, 0.25, 1.0, 1)
        assert expected == pytest.approx(18.0 / np.sqrt(2.0), rel=1e-15)
        assert _hand_run().bound_check() == ("holds", expected)

    def test_violated(self):
        """A tiny start value and a tiny smoothness make C1 and C2 tiny,
        which puts the bound below the observed minimum gradient norm
        of 1."""
        run = _hand_run(f0=1e-6, smoothness=1e-6)
        verdict, bound = run.bound_check()
        assert verdict == "violated"
        assert bound == _expected_bound(1e-6, 1e-6, 4, 0.25, 1.0, 1) < 1.0

    def test_frozen_arithmetic(self):
        """f0=1, L=1, m=4, gamma=0.5, c=1 over 99 steps gives
        C1 = 1, C2 = 4, bound = 5/10."""
        run = _hand_run(min_sin=(0.5,) * 100)
        assert run.steps == 99
        verdict, bound = run.bound_check()
        assert bound == _expected_bound(1.0, 1.0, 4, 0.5, 1.0, 99)
        c1 = 1.0 / (2.0 * 0.5)
        c2 = 1.0 * 8.0 / (2.0 * 0.5)
        assert bound == pytest.approx((c1 + c2) / 10.0, rel=1e-14)
        assert verdict == "violated"  # the minimum gradient norm is 1

    def test_scales_inversely_with_sqrt_steps(self):
        b1 = _hand_run(min_sin=(0.5,) * 100).bound_check()[1]
        b2 = _hand_run(min_sin=(0.5,) * 400).bound_check()[1]
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_zero_start_value_leaves_only_c2(self):
        """f0 = 0 is the objectives' lower bound: C1 vanishes and the
        bound is C2 / sqrt(steps + 1) = 8 / 10."""
        bound = _hand_run(min_sin=(0.5,) * 100, f0=0.0).bound_check()[1]
        assert bound == pytest.approx(1.0 * 8.0 / (2.0 * 0.5) / 10.0, rel=1e-14)

    @pytest.mark.parametrize("f0", [-1.0, -1e-300, -np.inf])
    def test_rejects_start_value_below_zero(self, f0):
        """0 is the lower bound the bound takes, so a start value below
        it, which only an objective from outside the package can give,
        is an error, not a verdict."""
        with pytest.raises(ValueError, match="^f0 must be non-negative"):
            _hand_run(f0=f0).bound_check()

    def test_judged_at_the_runs_own_step_scale(self):
        """A run at c = 2 is judged at c = 2, with its objective's
        constants; no caller can hand it another scale."""
        objective = softmax_objective(8, 8, n_samples=64, seed=2)
        run = run_convergence_experiment(objective, 100, c=2.0, seed=2)
        expected = _expected_bound(
            float(run.f_values[0]), objective.smoothness,
            8, run.realized_gamma, 2.0, 100,
        )
        assert run.bound_check() == ("holds", expected)

    def test_noisy_run_is_skipped(self):
        run = run_convergence_experiment(quadratic_objective(4, 4, seed=2), 20, noise=0.05)
        assert run.noise == 0.05
        assert run.bound_check() == ("skipped", None)

    def test_realized_gamma_and_eta_are_derived_not_stored(self):
        names = [f.name for f in dataclasses.fields(ConvergenceRun)]
        assert "realized_gamma" not in names and "eta" not in names
        assert len(names) == 8
        assert _hand_run().realized_gamma == 0.25
        assert _hand_run(c=2.0).eta == 2.0 / np.sqrt(2.0)
        for name in ("realized_gamma", "eta"):
            with pytest.raises(AttributeError):
                setattr(_hand_run(), name, 1.0)

    def test_steps_come_from_the_record(self):
        """T is one less than the number of records, not a field that
        could disagree with them."""
        assert "steps" not in [f.name for f in dataclasses.fields(ConvergenceRun)]
        assert _hand_run().steps == 1
        assert _hand_run(min_sin=(0.5,) * 31).steps == 30
        with pytest.raises(AttributeError):
            _hand_run().steps = 2
        with pytest.raises(TypeError, match="steps"):
            ConvergenceRun(
                _hand_objective(), 1.0, 0.0, 0, *(np.ones(2) for _ in range(4)),
                steps=1,
            )


class TestRunExperiment:
    def test_deterministic_and_reproducible(self):
        obj = quadratic_objective(6, 6, seed=4)
        a = run_convergence_experiment(obj, 50, c=1.0, seed=12)
        b = run_convergence_experiment(obj, 50, c=1.0, seed=12)
        np.testing.assert_array_equal(a.f_values, b.f_values)
        np.testing.assert_array_equal(a.grad_norms, b.grad_norms)
        np.testing.assert_array_equal(a.inner_products, b.inner_products)

    def test_zero_noise_matches_deterministic(self):
        """With no noise the run is deterministic: from the objective's
        own start point, the experiment seed changes no record."""
        obj = quadratic_objective(5, 5, seed=4)
        a = run_convergence_experiment(obj, 40, seed=3, noise=0.0)
        b = run_convergence_experiment(obj, 40, seed=8, noise=0.0)
        np.testing.assert_array_equal(a.f_values, b.f_values)
        np.testing.assert_array_equal(a.grad_norms, b.grad_norms)
        np.testing.assert_array_equal(a.inner_products, b.inner_products)

    def test_noisy_run_records_the_true_gradient_norm(self):
        """A noisy run steps with the noisy gradient but records the norm
        of the true one at every iterate: ``_norm``'s bits, within 1e-13
        of the norm from an exactly rounded sum."""
        obj = quadratic_objective(5, 5, seed=4)
        true = []

        def evaluate(theta):
            f_val, grad = obj.evaluate(theta)
            true.append(grad.copy())
            return f_val, grad

        run = run_convergence_experiment(
            dataclasses.replace(obj, evaluate=evaluate), 40, seed=3, noise=0.5
        )
        assert len(true) == 41
        expected = np.array([fsum_norm(g) for g in true])
        np.testing.assert_allclose(run.grad_norms, expected, rtol=1e-13, atol=0)
        assert run.grad_norms.tobytes() == np.array([_norm(g) for g in true]).tobytes()

    def test_records_have_expected_length_and_gamma(self):
        obj = quadratic_objective(4, 4, seed=1)
        run = run_convergence_experiment(obj, 30, seed=5)
        assert len(run.f_values) == 31
        assert run.realized_gamma == pytest.approx(float(run.min_sin_phi.min()))
        assert run.min_grad_norm() == pytest.approx(float(run.grad_norms.min()))
        assert run.eta == pytest.approx(1.0 / np.sqrt(31.0))

    def test_bound_holds_on_quadratic(self):
        obj = quadratic_objective(4, 4, seed=2)
        run = run_convergence_experiment(obj, 400, c=1.0, seed=2)
        assert run.steps == 400
        bound = _expected_bound(
            float(run.f_values[0]), obj.smoothness, 4, run.realized_gamma, 1.0, 400
        )
        assert run.min_grad_norm() <= bound
        assert run.bound_check() == ("holds", bound)

    def test_stochastic_run_differs_from_deterministic(self):
        """A positive noise is what makes a run stochastic."""
        obj = quadratic_objective(5, 5, seed=4)
        det = run_convergence_experiment(obj, 40, seed=3)
        sto = run_convergence_experiment(obj, 40, seed=3, noise=0.5)
        assert not np.array_equal(det.f_values, sto.f_values)
        # initial point is shared, so the first objective value agrees
        assert det.f_values[0] == sto.f_values[0]

    def test_non_finite_gradient_raises(self):
        """The runner feeds a caller-supplied gradient into its arithmetic,
        so a NaN in it must stop the run, not land in the records."""
        base = quadratic_objective(4, 4, seed=3)
        calls = []

        def evaluate(theta):
            f, grad = base.evaluate(theta)
            calls.append(f)
            if len(calls) == 4:
                grad = grad.copy()
                grad[2, 1] = np.nan
            return f, grad

        obj = SmoothObjective(
            dims=(4, 4), evaluate=evaluate, smoothness=1.0,
            theta0=base.theta0,
        )
        with pytest.raises(ValueError, match="non-finite"):
            run_convergence_experiment(obj, 10)
        assert len(calls) == 4

    def test_radial_gradient_aborts_at_its_step(self):
        """A gradient parallel to every unit column has no tangent part,
        so the normalized step is undefined from the first iterate."""
        obj = SmoothObjective(
            dims=(3, 3),
            evaluate=lambda theta: (0.5 * float(np.sum(theta * theta)), theta.copy()),
            smoothness=1.0,
            theta0=np.eye(3),
        )
        with pytest.raises(RuntimeError, match=r"experiment aborted at step 0: "):
            run_convergence_experiment(obj, 5)

    def test_failed_alignment_check_aborts_at_its_step(self):
        """A column scaled by 1e200 leaves a tangent that is rounding
        noise, along which the step would go uphill; the alignment
        identity fails, and the run reports it as it reports a
        degenerate slice, naming the step."""
        rng = np.random.default_rng(0)
        theta0 = rng.standard_normal((6, 4))
        theta0[:, 2] *= 1e200
        target = rng.standard_normal((6, 4))
        obj = SmoothObjective(
            dims=(6, 4), evaluate=lambda theta: (0.0, theta - target),
            smoothness=1.0, theta0=theta0,
        )
        with pytest.raises(RuntimeError, match=(
            r"^experiment aborted at step 0: alignment identity violated: "
        )) as err:
            run_convergence_experiment(obj, 5)
        assert isinstance(err.value.__cause__, ArithmeticError)

    @pytest.mark.parametrize("noise", [-0.1, float("nan")])
    def test_noise_must_be_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise must be non-negative"):
            run_convergence_experiment(quadratic_objective(4, 4), 2, noise=noise)

    def test_misshapen_gradient_raises(self):
        obj = SmoothObjective(
            dims=(4, 4),
            evaluate=lambda theta: (0.0, np.ones((4, 3))),
            smoothness=1.0,
        )
        with pytest.raises(ShapeMismatchError, match=r"\(4, 3\) != \(4, 4\)"):
            run_convergence_experiment(obj, 5)

    def test_csv_round_trip(self, tmp_path):
        obj = quadratic_objective(4, 4, seed=6)
        run = run_convergence_experiment(obj, 20, seed=7)
        path = tmp_path / "out.csv"
        run.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CONVERGENCE_CSV_HEADER)
        assert len(lines) == 22
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(float(run.f_values[0]), rel=1e-15)

    def test_csv_row_bytes(self, tmp_path):
        """Every float is written as its shortest round-trip repr."""
        run = ConvergenceRun(
            objective=_hand_objective(), c=1.0, noise=0.0, seed=0,
            f_values=np.array([0.1 + 0.2, 2.0]),
            grad_norms=np.array([1e-300, 0.5]),
            inner_products=np.array([2.5e-08, -0.0]),
            min_sin_phi=np.array([np.float64(1) / 3, 1.0]),
        )
        assert run.realized_gamma == np.float64(1) / 3
        path = tmp_path / "out.csv"
        run.to_csv(path)
        assert path.read_bytes() == (
            b"step,f,grad_norm,S_t,min_sin_phi\r\n"
            b"0,0.30000000000000004,1e-300,2.5e-08,0.3333333333333333\r\n"
            b"1,2.0,0.5,-0.0,1.0\r\n"
        )


def _descent_residuals(run, eta):
    """The quadratic's descent identity judged from a run's record at
    step size ``eta``: per step, f_{t+1} - (f_t - eta*sqrt(m)*S_t +
    eta^2*m*n/2), and the telescoped f_T - f_0 less the sum of the
    predicted changes; both relative to f_0."""
    m, n = run.objective.dims
    f = run.f_values
    change = -eta * np.sqrt(m) * run.inner_products[:-1] + eta**2 * m * n / 2.0
    return (f[1:] - f[:-1] - change) / f[0], (f[-1] - f[0] - change.sum()) / f[0]


class TestDescentIdentity:
    """On the quadratic (Hessian I) a step of length eta*sqrt(m) along vhat,
    whose n columns are unit, changes f by exactly
    -eta*sqrt(m)*S_t + eta^2*m*n/2: the step the bound's argument takes,
    checked from the record alone."""

    @pytest.mark.parametrize("dims", [(16, 16), (8, 5), (5, 8)])
    def test_holds_at_every_step_and_in_sum(self, dims):
        run = run_convergence_experiment(quadratic_objective(*dims, seed=0), 1000, seed=0)
        per_step, total = _descent_residuals(run, run.eta)
        assert np.abs(per_step).max() <= 1e-10
        assert abs(total) <= 1e-10

    @pytest.mark.parametrize("dims", [(16, 16), (8, 5), (5, 8)])
    def test_fails_for_steps_one_percent_longer(self, dims):
        run = run_convergence_experiment(quadratic_objective(*dims, seed=0), 1000, seed=0)
        per_step, total = _descent_residuals(run, 1.01 * run.eta)
        assert np.abs(per_step).max() > 1e-10
        assert abs(total) > 1e-10
