import collections
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ctrlkit import models, scenarios
from ctrlkit.control import adaptive_gain, fsfc
from ctrlkit.models import (G, BlowupError, PlantModel, SimSpec, dip_plant,
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
        bad = PlantModel("bad", lambda x, u: np.array([np.nan]))
        with pytest.raises(BlowupError):
            step_euler(bad, [0.0], [0.0], 0.01)

    @pytest.mark.filterwarnings("error")  # a blow-up raises BlowupError and nothing else
    @pytest.mark.parametrize("dx", [[np.inf], [-np.inf, 0.0], [np.inf, -np.inf], [1.0, np.nan],
                                    [0.0, 1.0, np.nan, 0.0], [0.0] * 5 + [-np.inf], [1.0] * 6 + [np.nan]])
    def test_any_non_finite_entry_raises(self, dx):
        bad = PlantModel("bad", lambda x, u: tuple(dx))
        with pytest.raises(BlowupError):
            step_euler(bad, np.zeros(len(dx)), [0.0], 0.01)

    @pytest.mark.filterwarnings("error")
    def test_finite_entries_whose_sum_overflows_do_not_raise(self):
        for n in (2, 3, 4, 6):
            big = PlantModel("big", lambda x, u: (1e308,) * n)
            out = step_euler(big, (0.0,) * n, [0.0], 0.5)
            assert out == (5e307,) * n

    def test_returns_a_tuple_of_floats(self):
        x, u = (0.2, 0.1, 0.0, 0.3), (1.5,)
        out = step_euler(sip_plant(), x, u, 0.001)
        assert type(out) is tuple and [type(v) for v in out] == [float] * 4
        assert out == tuple(np.array(x) + 0.001 * np.array(sip_plant().deriv(x, u)))

    @staticmethod
    def comprehension(x, dx, dt):
        """The one-size-fits-all step the unpacked sizes replace, kept as their oracle."""
        return tuple([xi + dt * di for xi, di in zip(x, dx)])

    @staticmethod
    def draw(rng, n):
        """n floats over many magnitudes, with signed zeros and subnormals among them."""
        values = (rng.normal(size=n) * 10.0 ** rng.uniform(-150, 150, n)).tolist()
        specials = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e300]
        return tuple(v if rng.random() < 0.7 else specials[rng.integers(len(specials))] for v in values)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bit_identical_to_the_comprehension(self, n):
        rng = np.random.default_rng(2100 + n)
        for _ in range(300):
            x, dx = self.draw(rng, n), self.draw(rng, n)
            dt = float(10.0 ** rng.uniform(-4, 0))
            plant = PlantModel("drawn", lambda state, u: dx)
            for state in (x, list(x), np.array(x)):
                with np.errstate(over="ignore"):  # a numpy-scalar x may overflow as a float x does
                    out, ref = step_euler(plant, state, (0.0,), dt), self.comprehension(state, dx, dt)
                assert type(out) is tuple and list(map(type, out)) == list(map(type, ref))
                assert np.array(out).tobytes() == np.array(ref).tobytes()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_derivative_of_another_length_raises(self, n):
        for m in (n - 1, n + 1):
            plant = PlantModel("short" if m < n else "long", lambda x, u: (1.0,) * m)
            with pytest.raises(ValueError, match=f"^plant '{plant.name}' returned {m} derivative "
                                                 f"entries for a state of {n}$"):
                step_euler(plant, (0.0,) * n, (0.0,), 0.01)


@pytest.mark.parametrize("make", [sip_plant, dip_plant, motorcycle_plant, motorcycle_lateral_plant,
                                  point2d_plant])
def test_every_plant_derivative_is_a_float_tuple(make):
    plant = make()
    n = {"sip": 4, "dip": 6, "motorcycle": 6, "motorcycle_lateral": 4, "point2d": 2}[plant.name]
    dx = plant.deriv(tuple(0.1 * (k + 1) for k in range(n)), (0.5,))
    assert type(dx) is tuple and [type(v) for v in dx] == [float] * n


class TestSimulate:
    def test_controller_and_stop_predicates_receive_float_tuples(self):
        seen = []

        def record(s):
            seen.append(s)
            return None

        def controller(t, x):
            record(x)
            return -x[0]

        spec = SimSpec(dt=0.01, t_end=0.05, stop=record)
        traj = simulate(sip_plant(), controller, np.array([0.3, 0.0, 0.0, 0.0]), spec)
        assert len(seen) == 1 + 5 + 4  # x0, the predicate once per step, no control at the end
        for s in seen + traj.states:
            assert type(s) is tuple and [type(v) for v in s] == [float] * 4

    def test_controller_called_once_per_step(self):
        calls = []
        plant = PlantModel("int", lambda x, u: np.array([u[0]]))

        def controller(t, x):
            calls.append(t)
            return 1.0

        traj = simulate(plant, controller, [0.0], SimSpec(dt=0.1, t_end=1.0))
        assert len(calls) == 10
        assert traj.terminal_event == "timeout"
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.states[-1][0] == pytest.approx(1.0)

    @pytest.mark.parametrize("t_end, stop, event", [
        (1.0, None, "timeout"),
        (1.0, lambda s: "failure" if s[0] > 0.25 else None, "failure"),
        (0.1, None, "timeout"),  # one step
    ])
    def test_controller_receives_every_state_but_the_last(self, t_end, stop, event):
        # the same tuple objects, in order, once each: run_scenario folds the
        # barrier's last value after the controller's running minimum on this
        seen = []
        plant = PlantModel("int", lambda x, u: np.array([u[0]]))

        def controller(t, x):
            seen.append(x)
            return 1.0

        traj = simulate(plant, controller, [0.0], SimSpec(dt=0.1, t_end=t_end, stop=stop))
        assert traj.terminal_event == event
        assert len(seen) == len(traj.states) - 1
        assert all(a is b for a, b in zip(seen, traj.states[:-1]))

    def test_success_checked_before_failure(self):
        """The row's stop decides priority: arrival wins over a fall at the same state."""
        stop = scenarios._SCENARIOS["motorcycle_smc"].stop
        xD, yD, _ = scenarios._MOTO_POSE_D
        assert stop((xD, yD, 0.0, 0.0, math.pi / 2, 0.0)) == "destination"
        assert stop((xD + 1.0, yD, 0.0, 0.0, math.pi / 2, 0.0)) == "failure"
        assert stop((xD + 1.0, yD, 0.0, 0.0, 0.0, 0.0)) is None

    def test_failure_event_recorded(self):
        plant = PlantModel("int", lambda x, u: np.array([1.0]))
        spec = SimSpec(dt=0.1, t_end=1.0, stop=lambda s: "failure" if s[0] > 0.25 else None)
        traj = simulate(plant, lambda t, x: 0.0, [0.0], spec)
        assert traj.terminal_event == "failure"
        assert traj.times[-1] == pytest.approx(0.3)

    def test_stop_names_the_event_and_ends_the_run_on_that_step(self):
        plant = PlantModel("int", lambda x, u: np.array([1.0]))
        spec = SimSpec(dt=0.1, t_end=1.0, stop=lambda s: "arrived" if s[0] > 0.05 else None)
        traj = simulate(plant, lambda t, x: 0.0, [0.0], spec)
        assert traj.terminal_event == "arrived"
        assert len(traj.times) == 2  # initial sample plus the event step

    def test_deterministic_repeat(self):
        plant = sip_plant()
        spec = SimSpec(dt=0.001, t_end=0.5)
        ctl = lambda t, x: -(np.array([-58.0, -18.4, -6.4]) @ (x[0], x[1], x[3]))
        a = simulate(plant, ctl, [0.4 * math.pi, 0, 0.2, 0], spec)
        b = simulate(plant, ctl, [0.4 * math.pi, 0, 0.2, 0], spec)
        assert np.array_equal(np.array(a.states), np.array(b.states))

    def test_inputs_are_standalone_float_arrays(self):
        spec = SimSpec(dt=0.001, t_end=0.05)
        traj = simulate(sip_plant(), lambda t, x: np.float64(-x[0]), [0.3, 0.0, 0.0, 0.0], spec)
        assert len(traj.inputs) == 51
        for u in traj.inputs:
            assert isinstance(u, tuple) and len(u) == 1 and type(u[0]) is float

    def test_controller_output_kinds_give_identical_trajectories(self):
        spec = SimSpec(dt=0.001, t_end=0.2)
        law = lambda x: -(np.array([-58.0, -18.4, -6.4]) @ (x[0], x[1], x[3]))
        kinds = [lambda t, x: float(law(x)), lambda t, x: law(x), lambda t, x: np.array(law(x))]
        runs = [simulate(sip_plant(), ctl, [0.3, 0.0, 0.1, 0.0], spec) for ctl in kinds]
        for traj in runs[1:]:
            assert traj.times == runs[0].times
            assert np.array_equal(np.array(traj.states), np.array(runs[0].states))
            assert np.array_equal(np.array(traj.inputs), np.array(runs[0].inputs))

    def test_blowup_reports_time(self):
        plant = PlantModel("int", lambda x, u: np.array([1.0 if x[0] < 0.25 else np.nan]))
        with pytest.raises(BlowupError) as ei:
            simulate(plant, lambda t, x: 0.0, [0.0], SimSpec(dt=0.1, t_end=1.0))
        assert ei.value.t == pytest.approx(0.4)
        assert "(t=0.4)" in str(ei.value)
        assert ei.value.state.tolist() == pytest.approx([0.3])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimSpec(dt=0.1, t_end=0.01)

    def test_spec_rejects_a_dt_whose_step_count_overflows(self):
        with pytest.raises(ValueError, match="^dt must be large enough that t_end/dt is finite"):
            SimSpec(dt=1e-320, t_end=10.0)

    @pytest.mark.parametrize("field, value", [("dt", math.nan), ("dt", math.inf),
                                              ("t_end", math.nan), ("t_end", math.inf)])
    def test_spec_rejects_non_finite_values(self, field, value):
        settings = {"dt": 0.01, "t_end": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SimSpec(**settings)


class TestFailureContract:
    """Every failure inside a step ends in BlowupError with the time and the state."""

    PLANT_FACTORIES = sorted(name for name in vars(models) if name.endswith("_plant"))

    @staticmethod
    def draw(rng, n):
        """n entries: moderate, up to +-1e308, zeros, infinities and nans."""
        def entry():
            kind = rng.integers(5)
            if kind == 0:
                return float(rng.normal())
            if kind == 1:
                return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 308.0))
            if kind == 2:
                return float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 1.7976931348623157) * 1e308)
            if kind == 3:
                return float(rng.choice([0.0, -0.0, 1e154, -2e154]))
            return float(rng.choice([math.inf, -math.inf, math.nan]))
        # most draws keep every entry but one moderate, so a single bad entry is tested alone
        values = [entry() for _ in range(n)]
        if rng.random() < 0.5:
            keep = int(rng.integers(n))
            values = [v if i == keep else float(rng.normal()) for i, v in enumerate(values)]
        return values

    def test_every_plant_factory_is_covered(self):
        assert self.PLANT_FACTORIES == ["dip_plant", "motorcycle_lateral_plant", "motorcycle_plant",
                                        "point2d_plant", "sip_plant"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factory", PLANT_FACTORIES)
    def test_simulate_returns_finite_states_or_raises_blowup_with_time_and_state(self, factory):
        plant = getattr(models, factory)()
        n = {"sip": 4, "dip": 6, "motorcycle": 6, "motorcycle_lateral": 4, "point2d": 2}[plant.name]
        rng = np.random.default_rng(self.PLANT_FACTORIES.index(factory) + 1300)
        outcomes = collections.Counter()
        for _ in range(400):
            x0 = self.draw(rng, n)
            u0 = self.draw(rng, 1)[0] if rng.random() < 0.3 else float(rng.normal())
            dt = float(rng.choice([1e-3, 0.1, 1.0]))
            spec = SimSpec(dt=dt, t_end=5 * dt)
            try:
                traj = simulate(plant, lambda t, x: u0, x0, spec)
            except BlowupError as exc:
                assert type(exc.t) is float and dt <= exc.t <= 5 * dt * (1 + 1e-12), exc.t
                assert f"(t={exc.t:.6g})" in str(exc)
                assert isinstance(exc.state, np.ndarray) and exc.state.shape == (n,)
                outcomes["blowup"] += 1
            else:
                assert all(math.isfinite(v) for state in traj.states for v in state)
                outcomes["finite"] += 1
        assert outcomes["blowup"] > 100 and outcomes["finite"] > 40, outcomes

    def test_overflowing_euler_step_ends_in_blowup(self):
        """A finite derivative whose step overflows: the second step from theta_dot = 1.7e308."""
        with pytest.raises(BlowupError, match="^non-finite new state for plant 'sip'") as ei:
            simulate(sip_plant(), lambda t, x: 0.0, (0.0, 1.7e308, 0.0, 0.0), SimSpec(dt=1.0, t_end=5.0))
        assert ei.value.t == 2.0
        assert ei.value.state.tolist() == [1.7e308, 1.7e308, 0.0, 0.0]

    def test_overflow_inside_a_derivative_ends_in_blowup(self):
        """The dip plant squares its rates with **, which raises OverflowError past 1.34e154."""
        with pytest.raises(BlowupError, match="^OverflowError .* in the derivative for plant 'dip'") as ei:
            simulate(dip_plant(), lambda t, x: 0.0, (0.0, 0.0, 0.0, 2e154, 0.0, 0.0),
                     SimSpec(dt=1e-3, t_end=1.0))
        assert ei.value.t == 1e-3
        assert type(ei.value.__cause__) is OverflowError

    def test_infinite_angle_ends_in_blowup(self):
        with pytest.raises(BlowupError, match="^ValueError \\(math domain error\\) in the derivative") as ei:
            simulate(sip_plant(), lambda t, x: 0.0, (math.inf, 0.0, 0.0, 0.0), SimSpec(dt=1e-3, t_end=1.0))
        assert ei.value.t == 1e-3

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_an_error_inside_a_derivative_is_the_blowups_cause(self, error):
        def deriv(x, u):
            raise error("a deriv defect")

        plant = PlantModel("defect", deriv)
        with pytest.raises(BlowupError, match=f"^{error.__name__} \\(a deriv defect\\) in the "
                                              "derivative for plant 'defect'") as ei:
            simulate(plant, lambda t, x: 0.0, (0.0, 1.0), SimSpec(dt=0.01, t_end=1.0))
        assert type(ei.value.__cause__) is error and ei.value.t == 0.01

    @staticmethod
    def adaptive_controller(t, x):
        """sip_adaptive_online's law: the gain placed at the current angle, then fsfc."""
        return fsfc(adaptive_gain(x[0], scenarios._POLES3), (x[0], x[1], x[3]))

    def test_controller_error_on_the_first_state_ends_in_blowup_at_time_zero(self):
        """From theta = nan the adaptive gain has no controllable pair to place poles on."""
        x0 = (math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(BlowupError, match="^ValueError \\(\\(A, B\\) is not controllable\\) in the "
                                              "controller for plant 'sip' at state .*\\(t=0\\)$") as ei:
            simulate(sip_plant(), self.adaptive_controller, x0, SimSpec(dt=1e-3, t_end=1.0))
        assert ei.value.t == 0.0 and type(ei.value.__cause__) is ValueError
        assert np.array_equal(ei.value.state, x0, equal_nan=True)

    def test_overflowing_gain_product_ends_in_blowup_under_a_raising_error_state(self):
        """From theta_dot = 1e308 fsfc's dot overflows; numpy raising makes it a
        FloatingPointError, an ArithmeticError, which becomes the BlowupError's cause."""
        x0 = (0.1, 1e308, 0.0, 0.0)
        with np.errstate(all="raise"), pytest.raises(
                BlowupError, match="^FloatingPointError \\(overflow encountered in dot\\) in the "
                                   "controller for plant 'sip'") as ei:
            simulate(sip_plant(), self.adaptive_controller, x0, SimSpec(dt=1e-3, t_end=1.0))
        assert ei.value.t == 0.0 and type(ei.value.__cause__) is FloatingPointError
        assert ei.value.state.tolist() == list(x0)

    @pytest.mark.parametrize("when", [0.0, 0.03])
    def test_a_controller_error_is_the_blowups_cause(self, when):
        """A ZeroDivisionError raised by the controller at t carries t and the state it was given."""
        seen = []

        def controller(t, x):
            seen.append(x)
            if t >= when:
                return 1.0 / 0.0
            return 0.0

        with pytest.raises(BlowupError, match=f"^ZeroDivisionError \\(float division by zero\\) in "
                                              f"the controller for plant 'sip' .*\\(t={when:.6g}\\)$") as ei:
            simulate(sip_plant(), controller, (0.1, 0.0, 0.0, 0.0), SimSpec(dt=0.01, t_end=1.0))
        assert type(ei.value.__cause__) is ZeroDivisionError
        assert ei.value.t == pytest.approx(when, abs=1e-15) and len(seen) == round(when / 0.01) + 1
        assert ei.value.state.tolist() == list(seen[-1])


class TestSipFactoredModel:
    def test_upright_matrices(self):
        A, B = sip_factored_model(0.0)
        assert_allclose(A, [[0, 1, 0, 0], [10, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
                        atol=1e-15)
        assert_allclose(B, [0, -1, 0, 1], atol=1e-15)

    RANGES = ((-1.5, 1.5), (-1.0, 1.0), (-2.0, 2.0), (-5.0, 5.0))  # theta, theta_dot, x_dot, u

    def factorization_draws(self):
        """100 seeded (theta, theta_dot, x_dot, u): every range's ends together, all zeros,
        the angle at its ends, +-0.0, +-1e-8 and +-5e-324 with the rest drawn, then uniform draws."""
        rng = np.random.default_rng(3202)

        def drawn():
            return [float(rng.uniform(lo, hi)) for lo, hi in self.RANGES]

        draws = [[lo for lo, _ in self.RANGES], [hi for _, hi in self.RANGES], [0.0] * 4]
        for theta in (-1.5, 1.5, 0.0, -0.0, 1e-8, -1e-8, 5e-324, -5e-324):
            draws.append([theta] + drawn()[1:])
        while len(draws) < 100:
            draws.append(drawn())
        return draws

    def test_factorization_exact_on_trig_branch(self):
        """deriv == A(x) x + B(x) u at every angle, near upright included."""
        plant = sip_plant()
        draws = self.factorization_draws()
        assert len(draws) == 100
        for theta, dtheta, dx, u in draws:
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
        for _ in range(20):
            x0 = rng.uniform(-2, 2, size=2)
            A_an, B_an = plant.analytic_linearization(x0)
            A_fd, B_fd = linearize(plant, x0, [0.0])
            assert np.abs(A_an - A_fd).max() < 1e-9
            assert np.abs(B_an - B_fd).max() < 1e-9

    @pytest.mark.parametrize("make, design", [
        (dip_plant, "_dip_design_matrices"),
        (motorcycle_lateral_plant, "_motorcycle_design_matrices"),
    ])
    def test_finite_differences_of_tuple_derivatives_match_the_design_model(self, make, design):
        """The numeric path on the tuple-returning plants gives their analytic design matrices."""
        plant = make()
        A_ref, B_ref = getattr(scenarios, design)()
        n = len(A_ref)
        assert type(plant.deriv((0.0,) * n, (0.0,))) is tuple
        A, B = linearize(plant, np.zeros(n), [0.0])
        assert np.abs(A - A_ref).max() < 1e-8
        assert np.abs(B.ravel() - B_ref).max() < 1e-8

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

    @pytest.mark.filterwarnings("error")  # nor may the mass-matrix solve warn
    @pytest.mark.parametrize("where", [0, 2])
    def test_nan_angle_ends_in_blowup(self, where):
        """A nan angle makes c and r nan; the float solve passes them through as a nan result,
        with no error, and the run ends in BlowupError on its first step."""
        x0 = [0.3, 0.0, -0.2, 0.0, 0.0, 0.0]
        x0[where] = math.nan
        with np.errstate(all="raise"), pytest.raises(BlowupError) as ei:
            simulate(dip_plant(), lambda t, x: 0.0, x0, SimSpec(dt=1e-3, t_end=1.0))
        assert ei.value.t == 1e-3

    @staticmethod
    def numpy_deriv(states, inputs):
        """The dip derivative of each (state, input) with the mass-matrix solve done by
        np.linalg.solve (LAPACK dgesv on each 2x2 system, batched), as an (n, 6) array."""
        sin, cos = math.sin, math.cos
        rows = [(dy1, dy2, dpos, a, cos(y1 - y2),
                 2.0 * (G * sin(y1) - a * cos(y1)) - dy2 ** 2 * sin(y1 - y2),
                 G * sin(y2) - a * cos(y2) + dy1 ** 2 * sin(y1 - y2))
                for (y1, dy1, y2, dy2, _, dpos), (a,) in zip(states, inputs)]
        dy1, dy2, dpos, a, c, r0, r1 = np.array(rows).T
        M = np.stack([np.full_like(c, 2.0), c, c, np.ones_like(c)], axis=1).reshape(-1, 2, 2)
        dd1, dd2 = np.linalg.solve(M, np.stack([r0, r1], axis=1)[..., None])[..., 0].T
        return np.stack([dy1, dd1, dy2, dd2, dpos, a], axis=1), np.stack([r0, r1], axis=1)

    @staticmethod
    def solve_draws(rng, n):
        """n dip states and 1-entry inputs, as lists, with c = cos of U(-4, 4) and |r| up to about
        500; one in four makes r0, r1 or both a signed zero, through signed-zero angles, rates and input."""
        y2 = rng.uniform(-4.0, 4.0, n)
        y1 = y2 + rng.uniform(-4.0, 4.0, n)
        dy1, dy2 = rng.uniform(-7.0, 7.0, (2, n))
        a = rng.uniform(-200.0, 200.0, n)
        states = np.stack([y1, dy1, y2, dy2, rng.normal(size=n), rng.normal(size=n)], axis=1)
        zeros = rng.choice([0.0, -0.0], (n, 5))
        zero = rng.random(n) < 0.25
        which = rng.integers(3, size=n)  # r0, r1 or both
        for cols, rows in (([0, 3], zero & (which != 1)), ([1, 2], zero & (which != 0))):
            states[np.ix_(rows, cols)] = zeros[np.ix_(rows, cols)]  # y1, dy2 zero r0; dy1, y2 r1
        a[zero] = zeros[zero, 4]
        return states.tolist(), a[:, None].tolist()

    def test_mass_matrix_solve_is_numpys_by_bytes(self):
        """deriv's float solve equals np.linalg.solve's dgesv by bytes on 50,000 draws."""
        deriv = dip_plant().deriv
        states, inputs = self.solve_draws(np.random.default_rng(3203), 50_000)
        ref, r = self.numpy_deriv(states, inputs)
        out = np.array([deriv(x, u) for x, u in zip(states, inputs)])
        assert out.tobytes() == ref.tobytes()
        zero = r == 0.0
        assert 500 > np.abs(r).max() > 400
        for j in (0, 1):  # each entry of r meets both signed zeros, alone and with the other
            assert {np.signbit(v) for v in r[zero[:, j], j]} == {False, True}
            assert (zero[:, j] & ~zero[:, 1 - j]).sum() > 1000
        assert (zero[:, 0] & zero[:, 1]).sum() > 1000

    def test_default_run_solves_are_numpys_by_bytes(self):
        """At every state of the default dip_smc run, with its input, deriv equals the
        np.linalg.solve derivative by bytes."""
        traj, _ = scenarios.run_scenario("dip_smc")
        deriv = dip_plant().deriv
        out = np.array([deriv(x, u) for x, u in zip(traj.states, traj.inputs)])
        assert len(out) > 5000
        assert out.tobytes() == self.numpy_deriv(traj.states, traj.inputs)[0].tobytes()

    def test_array_inputs_give_the_tuple_values(self):
        """On float64 arrays, as linearize passes x0 +- h e_j and u0 +- h, deriv returns the
        values it returns on tuples of the same floats."""
        deriv = dip_plant().deriv
        states, inputs = self.solve_draws(np.random.default_rng(3204), 100)
        for x, (u,) in zip(states + [(0.0,) * 6], inputs + [(0.0,)]):
            x0, u0 = np.array(x), np.atleast_1d(np.asarray(u, dtype=float))
            points = [(x0, u0), (x0, u0 + 1e-6), (x0, u0 - 1e-6)]
            points += [(x0 + sign * 1e-6 * e, u0) for e in np.eye(6) for sign in (1.0, -1.0)]
            for xa, ua in points:
                ref = deriv(tuple(xa.tolist()), tuple(ua.tolist()))
                assert np.array(deriv(xa, ua)).tobytes() == np.array(ref).tobytes()


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
