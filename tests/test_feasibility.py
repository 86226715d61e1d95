import math
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravkick import feasibility
from gravkick.cli import _momentum_unit
from gravkick.config import build_scenario, load_preset
from gravkick.feasibility import (
    SWEEP_CSV_HEADER,
    ProtocolParams,
    amplitudes_for_gain,
    check_axes,
    delta_kick,
    evaluate_case,
    feasibility_ratio,
    solve_parameter,
    spreading_time,
    sweep,
    sweep_csv,
)
from gravkick.protocol import (
    SourceState,
    branch_weights,
    gaussian_postselection,
    paper_postselection,
    run,
)
from gravkick.units import HBAR

from . import oracles
from .refvals import (
    CASE_A_MASS,
    CASE_B_DOC,
    CASE_B_RATIO,
    DELTA_KICK_EXAMPLE,
    TAU_CASE_B,
    TAU_CESIUM,
)

RNG = np.random.default_rng(5150)

# (final state, phases) of ps_prob: the paper postselection unphased and phased, and another
POSTSELECTIONS = [
    (None, (0.0, 0.0)),
    (None, (0.4, -1.1)),
    (SourceState.from_amplitudes(0.6, 0.8j), (2.0, 0.3)),
]


def case_b_params() -> ProtocolParams:
    return ProtocolParams(
        M=1e-14, m=1e-20, T=0.5, x_A=4e-7, x_B=4e-7 * math.sqrt(10), W=1e-7, g=100.0
    )


def case_a_params() -> ProtocolParams:
    # T=None defaults to the spreading time of (m, W)
    return ProtocolParams(
        M=2e-8, m=2.3e-25, x_A=5e-5, x_B=5e-5 * math.sqrt(10), W=1e-5, g=1e3, T=None
    )


def one_point(cases: dict[str, np.ndarray]) -> dict[str, object]:
    """A one-point case's values by name; `.item()` raises unless the column holds one entry."""
    return {name: column.item() for name, column in cases.items()}


def random_params() -> ProtocolParams:
    x_a = 10.0 ** RNG.uniform(-7, -4)
    return ProtocolParams(
        M=10.0 ** RNG.uniform(-15, -8),
        m=10.0 ** RNG.uniform(-25, -18),
        T=10.0 ** RNG.uniform(-2, 1),
        x_A=x_a,
        x_B=x_a * RNG.uniform(1.5, 20.0),
        W=10.0 ** RNG.uniform(-8, -5),
        g=10.0 ** RNG.uniform(0, 3),
    )


class TestDeltaKick:
    def test_worked_example(self):
        assert delta_kick(1e-14, 1e-20, 0.5, 4e-7) == pytest.approx(
            DELTA_KICK_EXAMPLE, rel=1e-12
        )

    def test_zero_interaction_time(self):
        assert delta_kick(1e-14, 1e-20, 0.0, 4e-7) == 0.0

    def test_inverse_square_scaling(self):
        base = delta_kick(1e-14, 1e-20, 0.5, 4e-7)
        assert delta_kick(1e-14, 1e-20, 0.5, 8e-7) == pytest.approx(base / 4, rel=1e-14)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            delta_kick(1e-14, 1e-20, 0.5, 0.0)


class TestSpreadingTime:
    def test_cesium(self):
        assert spreading_time(2.3e-25, 1e-5) == pytest.approx(TAU_CESIUM, rel=1e-12)
        assert spreading_time(2.3e-25, 1e-5) == pytest.approx(0.1, rel=0.1)

    def test_heavier_probe(self):
        assert spreading_time(1e-20, 1e-7) == pytest.approx(TAU_CASE_B, rel=1e-12)
        assert spreading_time(1e-20, 1e-7) == pytest.approx(0.5, rel=0.1)

    def test_quadratic_in_width(self):
        assert spreading_time(1e-20, 2e-7) == pytest.approx(4 * TAU_CASE_B, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            spreading_time(-1e-20, 1e-7)
        with pytest.raises(ValueError):
            spreading_time(1e-20, 0.0)


class TestRatio:
    def test_case_b(self):
        assert feasibility_ratio(case_b_params()) == pytest.approx(CASE_B_RATIO, rel=1e-12)
        assert abs(feasibility_ratio(case_b_params())) == pytest.approx(0.002, rel=0.02)

    def test_zero_gain(self):
        assert feasibility_ratio(replace(case_b_params(), g=0.0)) == 0.0

    @pytest.mark.parametrize("field", ["g", "M", "m", "W", "T"])
    def test_linear_in_each_factor(self, field):
        base = case_b_params()
        scaled = replace(base, **{field: getattr(base, field) * 3.0})
        assert feasibility_ratio(scaled) == pytest.approx(
            3.0 * feasibility_ratio(base), rel=1e-12
        )

    def test_invariant_under_unit_round_trip(self):
        # the SI ratio is the first-order kick measured in natural momentum units, hbar/W
        built = build_scenario(CASE_B_DOC)
        s, unit = built.scenario, _momentum_unit(built, "natural")
        kick = oracles.effective_kick(s.pre.amp_a.real, s.pre.amp_b.real, s.delta_a / unit,
                              s.delta_b / unit)
        assert kick == pytest.approx(feasibility_ratio(built.params), rel=1e-10)

    def test_derivable_from_kick_and_first_order_formulas(self):
        # the ratio must equal effective_kick/(hbar/W) when the amplitudes
        # realize the target gain and the kicks come from delta_kick
        for _ in range(100):
            params = random_params()
            d_a = delta_kick(params.M, params.m, params.T, params.x_A)
            d_b = delta_kick(params.M, params.m, params.T, params.x_B)
            alpha, beta = amplitudes_for_gain(params.g, d_b / d_a)
            d_ef = oracles.effective_kick(alpha, beta, d_a, d_b)
            assert d_ef / (HBAR / params.W) == pytest.approx(
                feasibility_ratio(params), rel=1e-10
            )


class TestAmplitudesForGain:
    def test_round_trip_through_effective_kick(self):
        for _ in range(500):
            gain = 10.0 ** RNG.uniform(-2, 4)
            ratio = RNG.uniform(1e-4, 0.999)
            alpha, beta = amplitudes_for_gain(gain, ratio)
            assert alpha * alpha + beta * beta == pytest.approx(1.0, abs=1e-14)
            assert beta > alpha > 0
            d_a = 1.7e-30
            assert oracles.effective_kick(alpha, beta, d_a, ratio * d_a) == pytest.approx(
                -gain * d_a, rel=1e-10
            )

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            amplitudes_for_gain(10.0, 1.5)

    def test_negative_gain_refused(self):
        with pytest.raises(ValueError, match="^gain must be non-negative$"):
            amplitudes_for_gain(-1.0, 0.5)


class TestSolve:
    def test_case_a_source_mass(self):
        params = case_a_params()
        assert params.T == pytest.approx(TAU_CESIUM, rel=1e-12)
        solved = solve_parameter(params, "M", 1e-3)
        assert solved == pytest.approx(CASE_A_MASS, rel=1e-12)
        assert 1.4e-8 <= solved <= 2.2e-8

    def test_round_trip_reproduces_target(self):
        params = case_b_params()
        for field in ("M", "m", "W", "T", "x_A", "g"):
            solved = solve_parameter(params, field, -3.3e-4)
            back = feasibility_ratio(replace(params, **{field: solved}))
            assert abs(back) == pytest.approx(3.3e-4, rel=1e-12)

    def test_solve_x_a_case_b(self):
        solved = solve_parameter(case_b_params(), "x_A", CASE_B_RATIO)
        assert solved == pytest.approx(4e-7, rel=1e-12)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="target 0"):
            solve_parameter(case_b_params(), "T", 0.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, target):
        for field in ("M", "x_A", "g"):
            with pytest.raises(ValueError, match="must be finite"):
                solve_parameter(case_b_params(), field, target)

    def test_zero_gain_solves_only_for_the_gain(self):
        params = replace(case_b_params(), g=0.0)
        for field in ("M", "m", "W", "T", "x_A"):
            with pytest.raises(ValueError, match="g = 0"):
                solve_parameter(params, field, 1e-3)
        solved = solve_parameter(params, "g", 1e-3)
        assert abs(feasibility_ratio(replace(params, g=solved))) == pytest.approx(1e-3, rel=1e-12)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="solve"):
            solve_parameter(case_b_params(), "x_B", 1e-3)

    @pytest.mark.parametrize("field, target, solved", [
        ("M", 1e308, "inf"), ("g", 1e308, "inf"), ("x_A", 1e308, "0.0"),
        ("M", 1e-320, "0.0"), ("W", 5e-324, "0.0"),
    ])
    def test_solution_outside_double_range_rejected(self, field, target, solved):
        with pytest.raises(ValueError, match=f"solved {field} = {solved} is outside"):
            solve_parameter(case_b_params(), field, target)

    @pytest.mark.parametrize("field", ["M", "g"])
    def test_underflowed_ratio_refused(self, field):
        # kicks of 6.67e-303 and 6.52e-304 are normal doubles, but the ratio underflows to -0
        params = ProtocolParams(M=1e-14, m=1e-20, x_A=1e-6, x_B=3.2e-6, W=1e-100, g=100.0,
                                T=1e-270)
        assert feasibility_ratio(params) == 0.0
        with pytest.raises(ValueError) as exc:
            solve_parameter(params, field, 1e-3)
        assert str(exc.value) == (f"the ratio underflows to 0 at these inputs; no {field} "
                                  "reaches target 0.001")

    @settings(max_examples=60, deadline=None)
    @given(
        target=st.floats(min_value=1e-6, max_value=1e-1),
        field=st.sampled_from(["M", "m", "W", "T", "x_A", "g"]),
    )
    def test_inversion_identity_property(self, target, field):
        params = case_b_params()
        solved = solve_parameter(params, field, target)
        assert solved > 0
        overrides = {field: solved}
        if field == "x_A" and solved >= params.x_B:
            overrides["x_B"] = 2 * solved  # keep ordering; x_B does not enter the ratio
        assert abs(feasibility_ratio(replace(params, **overrides))) == pytest.approx(
            target, rel=1e-10
        )


class TestParams:
    def test_default_interaction_time(self):
        params = ProtocolParams(M=1e-14, m=1e-20, x_A=4e-6, x_B=8e-6, W=1e-7, g=10.0)
        assert params.T == pytest.approx(spreading_time(1e-20, 1e-7), rel=1e-14)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="x_B"):
            ProtocolParams(M=1e-14, m=1e-20, x_A=4e-6, x_B=4e-6, W=1e-7, g=10.0)

    def test_separation_flag(self):
        assert not case_b_params().separation_ok  # x_A = 4 W
        wide = replace(case_b_params(), x_A=2e-6, x_B=4e-6)
        assert wide.separation_ok

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, message", [
        ("M", "M must be positive and finite"), ("x_B", "x_B must be positive and finite"),
        ("g", "amplification factor must be non-negative and finite"),
    ])
    @pytest.mark.parametrize("column", [False, True], ids=["scalar", "column"])
    def test_non_finite_field_refused(self, field, message, value, column):
        # NaN passes every `<= 0` test, so a range check alone lets it through
        if column:  # one bad point among good ones
            value = np.array([getattr(case_b_params(), field)] * 2 + [value])
        with pytest.raises(ValueError, match=message):
            replace(case_b_params(), **{field: value})

    def test_overflowing_default_interaction_time_refused(self):
        # m W^2 / (2 hbar) overflows to inf
        with pytest.raises(ValueError, match="T must be positive and finite"):
            ProtocolParams(M=1e-14, m=1e300, x_A=4e-6, x_B=8e-6, W=1e-7, g=10.0)


class TestSweep:
    def test_single_axis_linearity(self):
        cases = sweep(case_b_params(), [("M", 1e-15, 2e-15, 2)])
        assert cases["M"].size == 2
        assert cases["ratio"][1] == pytest.approx(2 * cases["ratio"][0], rel=1e-12)

    def test_two_axis_row_major_order(self):
        cases = sweep(case_b_params(), [("M", 1e-15, 1e-14, 10), ("x_A", 4e-7, 1.2e-6, 10)])
        assert cases["M"].size == 100
        ms = cases["M"].tolist()
        xs = cases["x_A"].tolist()
        assert ms == sorted(ms)  # outer axis slowest
        assert xs[:10] == sorted(xs[:10])  # inner axis fastest within a block
        assert ms[0] != ms[-1] and xs[0] == xs[10]

    def test_contains_case_b_point(self):
        cases = sweep(case_b_params(), [("M", 1e-15, 1e-14, 10)])
        assert cases["ratio"][-1] == pytest.approx(CASE_B_RATIO, rel=1e-12)

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError, match="sweep field"):
            sweep(case_b_params(), [("mass", 1e-15, 1e-14, 5)])

    @pytest.mark.parametrize("count", [0, 3])
    def test_axis_count_refused(self, count):
        axes = [("M", 1e-15, 1e-14, 2), ("m", 1e-20, 2e-20, 2), ("W", 1e-7, 2e-7, 2)][:count]
        with pytest.raises(ValueError, match="^sweep takes one or two axes$"):
            check_axes(axes)

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            sweep(case_b_params(), [("M", 1, 2, 2), ("M", 1, 2, 2)])

    @pytest.mark.parametrize("field", ["M", "g", "x_A"])
    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("end", ["start", "stop"])
    def test_non_finite_bound_refused_by_name(self, field, bound, end):
        base = getattr(case_b_params(), field)
        axis = (field, bound, base, 3) if end == "start" else (field, base, bound, 3)
        with warnings.catch_warnings():  # refused before np.linspace sees the bound
            warnings.simplefilter("error")
            for grid in (check_axes, lambda axes: sweep(case_b_params(), axes)):
                with pytest.raises(ValueError, match=f"^{field} axis {end} must be finite"):
                    grid([axis])

    @pytest.mark.parametrize("axes, field", [
        ([("Q", 1.0, math.inf, 3)], "Q"),
        ([("M", 1e-15, math.nan, 1)], "M"),
        ([("M", 1e-15, 1e-14, 3), ("M", -math.inf, 1e-14, 3)], "M"),
        ([("M", 1e-15, 1e-14, 3), ("g", 1.0, 2.0, 3), ("W", math.inf, 1.0, 3)], "W"),
    ], ids=["unknown-field", "one-point", "same-field", "three-axes"])
    def test_non_finite_bound_refused_before_other_axis_checks(self, axes, field):
        # the order the command line refuses in: each axis's bounds as it is read
        with pytest.raises(ValueError, match=f"^{field} axis st(art|op) must be finite"):
            check_axes(axes)

    @pytest.mark.parametrize("start, stop", [(-1e308, 1e308), (1.5e308, -1e308)])
    def test_overflowing_span_refused_by_name(self, start, stop):
        # finite bounds whose difference is not: np.linspace would warn and make NaN points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid in (check_axes, lambda axes: sweep(case_b_params(), axes)):
                with pytest.raises(ValueError, match="^M axis span stop - start must be finite"):
                    grid([("M", start, stop, 3)])

    def test_parallel_matches_serial(self):
        axes = [("M", 1e-15, 1e-14, 6), ("W", 5e-8, 5e-7, 5)]
        serial = sweep(case_b_params(), axes, workers=1)
        parallel = sweep(case_b_params(), axes, workers=8)
        assert sweep_csv(serial) == sweep_csv(parallel)

    def test_one_call_evaluates_the_grid(self, monkeypatch):
        calls = []
        monkeypatch.setattr(feasibility, "evaluate_case",
                            lambda *args: calls.append(args) or evaluate_case(*args))
        cases = sweep(case_b_params(), [("M", 1e-15, 1e-14, 4), ("g", 10.0, 1e3, 3)])
        assert len(calls) == 1 and cases["M"].size == 12
        assert cases["T"].tolist() == [case_b_params().T] * 12

    def test_columns_match_single_points(self):
        # each grid point is the one-point case of its own fields, column for column
        base = case_a_params()
        cases = sweep(base, [("m", 1e-25, 4e-25, 5), ("g", 1e3, 1e7, 4)])
        for i in range(cases["M"].size):
            case = {name: column[i].item() for name, column in cases.items()}
            assert case == one_point(evaluate_case(replace(base, m=case["m"], g=case["g"])))

    def test_scalar_point_is_refused_in_numpy_arithmetic(self):
        # x_A^2 underflows to 0: a scalar point divides by it in numpy, as a column does
        params = ProtocolParams(M=1e-14, m=1e-20, x_A=1e-170, x_B=1e-160, W=1e-7, g=10.0, T=0.5)
        for point in (params, replace(params, M=np.array([params.M] * 2))):
            with pytest.raises(ValueError, match="^delta_a overflows the double range"):
                evaluate_case(point)

    @pytest.mark.parametrize("axes", [
        [("M", 1e-300, 2e-300, 3)],  # both kicks underflow to 0
        [("x_B", 1e132, 2e132, 3)],  # delta_b is subnormal, but not 0
        [("M", 1e-14, 1e-300, 3), ("m", 1e-20, 1e-25, 2)],  # only the last points
    ])
    def test_underflowing_kicks_rejected(self, axes):
        with warnings.catch_warnings():  # the kick ratio 0/0 is never formed
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^delta_b underflows the double range"):
                sweep(case_b_params(), axes)

    @pytest.mark.parametrize("overrides, axes, column", [
        ({}, [("M", 1e300, 1e308, 3), ("x_A", 1e-150, 2e-150, 3)], "delta_a"),
        ({}, [("M", 1e300, 1e308, 3)], "ratio"),
        ({"W": 1e10}, [("g", 1e298, 1e300, 3)], "ratio"),
        ({}, [("W", 1e150, 1e160, 3)], "tau"),
    ])
    def test_overflowing_columns_rejected(self, overrides, axes, column):
        with pytest.raises(ValueError, match=f"{column} overflows the double range"):
            sweep(replace(case_b_params(), **overrides), axes)

    @pytest.mark.parametrize("axis, message", [
        (("x_A", 4e-7, 2e-6, 5), "x_B must exceed x_A"),
        (("g", 10.0, -10.0, 5), "amplification factor must be non-negative"),
        (("M", 1e-14, 0.0, 5), "M must be positive"),
    ])
    def test_point_refusals_kept(self, axis, message):
        for axes in ([axis], [("W", 5e-8, 2e-7, 3), axis], [axis, ("W", 5e-8, 2e-7, 3)]):
            with pytest.raises(ValueError, match=message):
                sweep(case_b_params(), axes)


class TestAcceptance:
    @pytest.mark.parametrize("gain", [1e5, 1e6, 1e7])
    @pytest.mark.parametrize("make_params", [case_a_params, case_b_params], ids=["caseA", "caseB"])
    def test_ps_prob_matches_mpmath(self, make_params, gain):
        # (1 - 2 alpha beta I)/2 cancels as the gain grows; the reference takes
        # the paper weights (-alpha/sqrt(2), beta/sqrt(2)) at their float values.
        params = replace(make_params(), g=gain)
        case = one_point(evaluate_case(params))
        alpha, beta = amplitudes_for_gain(gain, case["delta_b"] / case["delta_a"])
        reference, _, _ = oracles.two_gaussian_stats_mp(
            -alpha / math.sqrt(2.0), beta / math.sqrt(2.0), case["delta_a"], case["delta_b"],
            HBAR / params.W,
        )
        assert case["ps_prob"] == pytest.approx(reference, rel=1e-9, abs=0.0)


    @pytest.mark.parametrize("post, phases", POSTSELECTIONS)
    def test_ps_prob_is_the_branch_weights_acceptance(self, post, phases):
        cases = sweep(case_b_params(), [("g", 1.0, 1e4, 4), ("M", 1e-15, 1e-13, 3)],
                      final=post, phases=phases)
        final = post if post is not None else paper_postselection(*phases)
        alpha, beta = amplitudes_for_gain(cases["g"], cases["delta_b"] / cases["delta_a"])
        for i in range(cases["M"].size):
            pre = SourceState(float(alpha[i]), float(beta[i]))
            w_a, w_b = branch_weights(pre, final, *phases)
            expected = gaussian_postselection(w_a, w_b, cases["delta_a"][i], cases["delta_b"][i],
                                              HBAR / cases["W"][i])[0]
            assert cases["ps_prob"][i] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("preset, axes, post, phases", [
        ("caseB", [("M", 1e-15, 1e-13, 200), ("x_A", 2e-7, 1e-6, 200)], None, (0.0, 0.0)),
        ("caseA", [("g", 1e3, 1e7, 200)], None, (0.0, 0.0)),
        ("caseB", [("g", 1e3, 1e7, 200)], None, (0.0, 0.0)),
        *(("caseB", [("g", 1.0, 1e4, 4), ("M", 1e-15, 1e-13, 3)], post, phases)
          for post, phases in POSTSELECTIONS),
    ], ids=["caseB M x x_A", "caseA gains", "caseB gains", "unphased", "phased", "other post"])
    def test_column_closed_form_matches_per_row_calls(self, preset, axes, post, phases):
        # numpy's complex kernels round differently from cmath's, so rows agree to 1e-12, not
        # bit for bit: the phased paper case by up to 8.2e-13 with numpy's AVX-512 kernels
        cases = sweep(build_scenario(load_preset(preset)).params, axes, 1, post, phases)
        final = post if post is not None else paper_postselection(*phases)
        alpha, beta = amplitudes_for_gain(cases["g"], cases["delta_b"] / cases["delta_a"])
        column = gaussian_postselection(*branch_weights(SourceState(alpha, beta), final, *phases),
                                        cases["delta_a"], cases["delta_b"], HBAR / cases["W"])
        rows = [gaussian_postselection(*branch_weights(SourceState(a, b), final, *phases),
                                       d_a, d_b, HBAR / w)
                for a, b, d_a, d_b, w in zip(*(c.tolist() for c in (
                    alpha, beta, cases["delta_a"], cases["delta_b"], cases["W"])))]
        assert cases["ps_prob"].tolist() == column[0].tolist()
        np.testing.assert_allclose(column, np.transpose(rows), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("evaluate, points", [
        (lambda: evaluate_case(case_b_params()), 1),
        (lambda: sweep(case_b_params(), [("M", 1e-15, 1e-13, 20), ("x_A", 2e-7, 1e-6, 20)]), 400),
    ], ids=["one point", "20x20"])
    def test_one_column_pass_per_evaluation(self, monkeypatch, evaluate, points):
        calls = Counter()
        for name in ("branch_weights", "gaussian_postselection"):
            def counted(*args, name=name, call=getattr(feasibility, name)):
                calls[name] += 1
                return call(*args)
            monkeypatch.setattr(feasibility, name, counted)
        assert evaluate()["M"].size == points
        assert calls == {"branch_weights": 1, "gaussian_postselection": 1}


    def test_ps_prob_past_the_overlap_overflow_is_the_weight_sum(self):
        # (gap / sigma)^2 overflows from M near 4.7e145 on caseB, and evaluate_case keeps numpy
        # quiet there (the suite makes its RuntimeWarnings errors): the overlap's limit I = 0
        # leaves P = |w_A|^2 + |w_B|^2, which is 1/2 for the paper postselection
        cases = sweep(build_scenario(load_preset("caseB")).params, [("M", 1e-14, 1e280, 5)])
        gap = np.abs(cases["delta_a"] - cases["delta_b"]) / (HBAR / cases["W"])
        past = gap > math.sqrt(sys.float_info.max)  # where gap * gap overflows
        assert past.tolist() == [False, True, True, True, True]
        alpha, beta = amplitudes_for_gain(cases["g"], cases["delta_b"] / cases["delta_a"])
        w_a, w_b = branch_weights(SourceState(alpha, beta), paper_postselection(0.0, 0.0))
        weight_sum = np.abs(w_a) ** 2 + np.abs(w_b) ** 2
        np.testing.assert_allclose(cases["ps_prob"][past], weight_sum[past], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(cases["ps_prob"][past], 0.5, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("evaluate", [
        lambda params, phases: evaluate_case(params, None, phases),
        lambda params, phases: sweep(params, [("M", 1e-15, 1e-13, 3)], 1, None, phases),
    ], ids=["evaluate_case", "sweep"])
    def test_non_finite_phase_refused(self, evaluate, value, index):
        phases = [0.3, -0.2]
        phases[index] = value
        message = f"^phase phi_{'ab'[index]} must be finite, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            evaluate(case_b_params(), tuple(phases))
        s = build_scenario(CASE_B_DOC).scenario
        with pytest.raises(ValueError, match=message):  # as `protocol.run` refuses it
            run(replace(s, phi_a=phases[0], phi_b=phases[1]))

    def test_beta_document_ps_prob_agrees_with_simulate(self):
        # an SI beta document's amplitudes are re-derived from its gain, so the two agree to
        # rounding, not bit for bit; a gain document's agree exactly
        doc = load_preset("caseB")
        rng = np.random.default_rng(27)
        for offset in 10.0 ** rng.uniform(-9.0, -3.0, size=300):
            built = build_scenario({**doc, "source": {"beta": 1.0 / math.sqrt(2.0) + offset}})
            s = built.scenario
            case = one_point(evaluate_case(built.params, s.post, (s.phi_a, s.phi_b)))
            assert case["ps_prob"] == pytest.approx(run(s).probability, rel=1e-9, abs=0.0)


class TestCsvFormat:
    def test_header_and_digits(self):
        text = sweep_csv(evaluate_case(case_b_params()))
        lines = text.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        cells = lines[1].split(",")
        assert len(cells) == 13
        assert cells[0] == "1.00000000e-14"
        assert cells[-1] in {"0", "1"}
        # scientific notation with 9 significant digits throughout
        for cell in cells[:-1]:
            mantissa = cell.lstrip("-").split("e")[0]
            assert len(mantissa.replace(".", "")) == 9

    def test_integer_fields_write_as_their_floats(self):
        # evaluate_case makes each parameter column float64, so sweep_csv writes an integer
        # field in the float format, not as %d
        ints = ProtocolParams(M=1, m=1, T=2, x_A=10**12, x_B=3 * 10**12, W=1, g=100)
        floats = ProtocolParams(M=1.0, m=1.0, T=2.0, x_A=1e12, x_B=3e12, W=1.0, g=100.0)
        cases = evaluate_case(ints)
        assert {column.dtype for name, column in cases.items() if name != "valid_flag"} == {
            np.dtype(np.float64)}
        assert sweep_csv(cases) == sweep_csv(evaluate_case(floats))

    def test_case_row_values(self):
        case = one_point(evaluate_case(case_b_params()))
        assert case["tau"] == pytest.approx(TAU_CASE_B, rel=1e-12)
        assert case["ratio"] == pytest.approx(CASE_B_RATIO, rel=1e-12)
        assert case["delta_a"] == pytest.approx(DELTA_KICK_EXAMPLE, rel=1e-12)
        assert case["delta_b"] == pytest.approx(DELTA_KICK_EXAMPLE / 10.0, rel=1e-12)
        assert 0.0 < case["ps_prob"] < 1.0
