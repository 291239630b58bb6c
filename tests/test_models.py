import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ctrlkit.models import (BlowupError, PlantModel, SimSpec, dip_plant,
                            linearize, motorcycle_lateral_plant,
                            motorcycle_plant, point2d_plant, simulate,
                            sip_factored_model, sip_plant, step_euler)


class TestStepEuler:
    def test_pendulum_free_fall_step(self):
        plant = sip_plant()
        x = np.array([0.2, 0.0, 0.0, 0.0])
        out = step_euler(plant, x, [0.0], 0.001)
        assert out[1] == pytest.approx(10.0 * math.sin(0.2) * 0.001, abs=1e-15)
        assert out[0] == pytest.approx(0.2)

    def test_non_finite_derivative_raises(self):
        bad = PlantModel("bad", 1, 1, lambda x, u: np.array([np.nan]))
        with pytest.raises(BlowupError):
            step_euler(bad, [0.0], [0.0], 0.01)


class TestSimulate:
    def test_controller_called_once_per_step(self):
        calls = []
        plant = PlantModel("int", 1, 1, lambda x, u: np.array([u[0]]))

        def controller(t, x):
            calls.append(t)
            return 1.0

        traj = simulate(plant, controller, [0.0], SimSpec(dt=0.1, t_end=1.0))
        assert len(calls) == 10
        assert traj.terminal_event == "timeout"
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.states[-1][0] == pytest.approx(1.0)

    def test_success_checked_before_failure(self):
        plant = PlantModel("int", 1, 1, lambda x, u: np.array([1.0]))
        spec = SimSpec(dt=0.1, t_end=1.0,
                       stop_success=lambda s: s[0] > 0.05,
                       stop_failure=lambda s: s[0] > 0.05)
        traj = simulate(plant, lambda t, x: 0.0, [0.0], spec)
        assert traj.terminal_event == "success"
        assert len(traj.times) == 2  # initial sample plus the event step

    def test_failure_event_recorded(self):
        plant = PlantModel("int", 1, 1, lambda x, u: np.array([1.0]))
        spec = SimSpec(dt=0.1, t_end=1.0, stop_failure=lambda s: s[0] > 0.25)
        traj = simulate(plant, lambda t, x: 0.0, [0.0], spec)
        assert traj.terminal_event == "failure"
        assert traj.times[-1] == pytest.approx(0.3)

    def test_deterministic_repeat(self):
        plant = sip_plant()
        spec = SimSpec(dt=0.001, t_end=0.5)
        ctl = lambda t, x: -(np.array([-58.0, -18.4, -6.4]) @ x[[0, 1, 3]])
        a = simulate(plant, ctl, [0.4 * math.pi, 0, 0.2, 0], spec)
        b = simulate(plant, ctl, [0.4 * math.pi, 0, 0.2, 0], spec)
        assert np.array_equal(np.array(a.states), np.array(b.states))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimSpec(dt=0.1, t_end=0.01)


class TestSipFactoredModel:
    def test_upright_matrices(self):
        A, B = sip_factored_model(0.0)
        assert_allclose(A, [[0, 1, 0, 0], [10, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
                        atol=1e-15)
        assert_allclose(B, [0, -1, 0, 1], atol=1e-15)

    @given(st.floats(-1.5, 1.5), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0),
           st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_factorization_exact_on_trig_branch(self, theta, dtheta, dx, u):
        """deriv == A(x) x + B(x) u at every angle, near upright included."""
        plant = sip_plant()
        x = np.array([theta, dtheta, 0.7, dx])
        A, B = sip_factored_model(theta)
        assert_allclose(plant.deriv(x, np.array([u])), A @ x + B * u,
                        rtol=0, atol=1e-12)

    def test_factorization_exact_at_zero(self):
        plant = sip_plant()
        x = np.array([0.0, 0.3, -1.0, 0.5])
        A, B = sip_factored_model(0.0)
        assert_allclose(plant.deriv(x, np.array([2.0])), A @ x + B * 2.0, atol=1e-15)


class TestLinearize:
    def test_point2d_analytic_matches_finite_differences(self):
        plant = point2d_plant()
        rng = np.random.default_rng(5)
        fd = PlantModel("fd", 2, 1, plant.deriv)  # same dynamics, no analytic form
        for _ in range(20):
            x0 = rng.uniform(-2, 2, size=2)
            A_an, B_an = linearize(plant, x0, [0.0])
            A_fd, B_fd = linearize(fd, x0, [0.0])
            assert np.abs(A_an - A_fd).max() < 1e-9
            assert np.abs(B_an - B_fd).max() < 1e-9

    def test_sip_upright_linearization(self):
        A, B = linearize(sip_plant(), np.zeros(4), [0.0])
        A_ref, B_ref = sip_factored_model(0.0)
        assert np.abs(A - A_ref).max() < 1e-9
        assert np.abs(B.ravel() - B_ref).max() < 1e-9


class TestDipPlant:
    def test_upright_equilibrium(self):
        plant = dip_plant()
        assert_allclose(plant.deriv(np.zeros(6), [0.0]), np.zeros(6), atol=1e-15)

    def test_cart_acceleration_passthrough(self):
        plant = dip_plant()
        d = plant.deriv(np.zeros(6), [3.0])
        assert d[5] == pytest.approx(3.0)

    def test_hanging_pendulum_accelerates_toward_down(self):
        plant = dip_plant()
        d = plant.deriv(np.array([0.3, 0, 0.3, 0, 0, 0]), [0.0])
        assert d[1] > 0  # inverted: gravity grows the lean angle

    def test_energy_rate_matches_power_input(self):
        """With no input the link accelerations obey the Lagrangian solve."""
        plant = dip_plant()
        s = np.array([0.4, -0.3, 0.1, 0.8, 2.0, -1.0])
        y1, dy1, y2, dy2 = s[0], s[1], s[2], s[3]
        d = plant.deriv(s, [0.0])
        # residual of the original (unsolved) equations of motion
        c12, s12 = math.cos(y1 - y2), math.sin(y1 - y2)
        lhs1 = 2 * d[1] + c12 * d[3]
        rhs1 = 2 * 10.0 * math.sin(y1) - s12 * dy2 ** 2
        lhs2 = c12 * d[1] + d[3]
        rhs2 = 10.0 * math.sin(y2) + dy1 ** 2 * s12
        assert lhs1 == pytest.approx(rhs1, abs=1e-10)
        assert lhs2 == pytest.approx(rhs2, abs=1e-10)


class TestMotorcyclePlants:
    def test_straight_riding_equilibrium(self):
        plant = motorcycle_plant()
        d = plant.deriv(np.zeros(6), [0.0])
        assert_allclose(d, [10.0, 0, 0, 0, 0, 0], atol=1e-15)

    def test_steering_lag(self):
        plant = motorcycle_plant()
        d = plant.deriv(np.zeros(6), [0.1])
        assert d[3] == pytest.approx(0.1 / 0.02)

    def test_roll_and_turn_coupling(self):
        plant = motorcycle_plant()
        s = np.array([0, 0, 0, 0.05, 0.1, 0])
        d = plant.deriv(s, [0.0])
        assert d[2] == pytest.approx(10.0 / 1.5 * math.tan(0.05))
        assert d[5] == pytest.approx(10.0 * math.sin(0.1)
                                     - (100.0 / 1.5) * math.tan(0.05) * math.cos(0.1))

    def test_lateral_model_matches_full_roll_dynamics(self):
        lat = motorcycle_lateral_plant()
        d = lat.deriv(np.array([0.3, 0.1, -0.2, 0.4]), [0.05])
        assert d[0] == pytest.approx(10.0 * math.sin(0.1))
        assert d[2] == pytest.approx(0.4)


class TestPoint2dPlant:
    def test_deriv_formula(self):
        plant = point2d_plant()
        d = plant.deriv(np.array([2.0, 0.5]), [0.3])
        assert d[0] == pytest.approx(2.0 * math.sin(0.5))
        assert d[1] == pytest.approx(0.8)
