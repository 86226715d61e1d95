"""Command-line front end: scenario presets, CSV/SVG bundles, sweeps.

Subcommands: simulate, feasibility, montecarlo, sweep, fig2, presets.
Output always lands as a bundle of atomically written files under --out
(or $GRAVKICK_OUT).  Errors produce a one-line JSON record on stderr next
to the human-readable message, and a nonzero exit code; warnings use the
same two lines and leave the exit code at 0.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import analysis, montecarlo, protocol, svg
from .config import (
    PRESET_NAMES,
    BuiltScenario,
    ConfigError,
    build_scenario,
    load_config,
    load_preset,
    preset_descriptions,
)
from .feasibility import (
    SEPARATION_FACTOR,
    SOLVABLE_FIELDS,
    ProtocolParams,
    evaluate_case,
    solve_parameter,
    sweep,
    sweep_csv,
)
from .output import summary_csv, table_csv, write_bundle, write_text_atomic
from .protocol import PostselectionImpossible
from .units import UnitSystem
from .wavepacket import GridPacket, moments, to_csv

FIG2_SAMPLES = 401
FIG2_WINDOW_SHARE = 0.99  # of the postselected state's squared norm inside p in [-4, 4] sigma
GRID_TOLERANCE = 1e-6  # in exact std; the presets' grids miss by at most 7e-14


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-1e-3" as a number, not an option: the stock pattern of older Pythons
        # (3.11: ^-\d+$|^-\d*\.\d+$) misses exponent forms, and a ratio is negative.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):  # also emit the machine-readable record
        print(json.dumps({"error": "usage", "message": message}), file=sys.stderr)
        super().error(message)


def _emit_record(level: str, kind: str, message: str, **extra) -> None:
    """The human-readable `level: message` line, then the one-line JSON record."""
    print(f"{level}: {message}", file=sys.stderr)
    print(json.dumps({level: kind, "message": message, **extra}), file=sys.stderr)


def _warn_grid_resolution(result: protocol.PostselectedResult, use: str) -> None:
    """Warn when the rendered conditional state misses the exact mean or std by over
    GRID_TOLERANCE std; the run still succeeds."""
    grid = moments(result.conditional)
    miss = max(abs(grid.mean - result.mean_kick), abs(grid.std - result.std)) / result.std
    if miss > GRID_TOLERANCE:
        n = result.conditional.p.size
        message = (f"the {n}-point grid of the conditional state misses the exact mean or std "
                   f"by {miss:.2g} std; {use} come from that grid")
        _emit_record("warning", "grid-resolution", message, field="probe.grid_points")


def _out_dir(args) -> str:
    return args.out or os.environ.get("GRAVKICK_OUT") or "gravkick-out"


def _emit_bundle(args, files: dict[str, str]) -> int:
    write_bundle(_out_dir(args), files)
    print(f"wrote {', '.join(sorted(files))} to {_out_dir(args)}")
    return 0


def _resolve_doc(args) -> dict:
    if args.scenario and args.config:
        raise ConfigError("give either a config file or --scenario, not both")
    if args.scenario:
        return load_preset(args.scenario)
    if args.config:
        return load_config(args.config)
    raise ConfigError("a config file or --scenario preset is required")


def _momentum_unit(built: BuiltScenario, display: UnitSystem) -> float:
    """Factor dividing scenario momenta for display in `display` units."""
    if display == built.units:
        return 1.0
    if built.units == UnitSystem.NATURAL:
        raise ConfigError("natural-unit scenarios have no SI anchor; cannot convert")
    return built.scenario.probe.sigma  # one natural momentum unit, hbar/W in SI


def _decomposition_curves(result: protocol.PostselectedResult, n: int = FIG2_SAMPLES):
    """A run's two branch pointers and their sum over sqrt(2 P), in natural units.

    Each Gaussian psi_X is read at p sigma and scaled by sqrt(sigma).  The branches are
    sqrt(2) w_X psi_X turned to make w_B real: beta psi_B and -alpha psi_A for the paper
    postselection.  Each curve is its modulus signed by its real part.
    """
    (w_a, psi_a), (w_b, psi_b) = result.terms
    sigma = psi_b.sigma
    scale = math.sqrt(2.0) * math.sqrt(sigma) * cmath.exp(-1j * cmath.phase(w_b))
    p = np.linspace(-4.0, 4.0, n)
    branch_b = scale * w_b * psi_b(p * sigma)
    branch_a = scale * w_a * psi_a(p * sigma)
    total = (branch_b + branch_a) / math.sqrt(2.0) / math.sqrt(result.probability)
    return p, *(np.copysign(np.abs(z), z.real) for z in (branch_b, branch_a, total))


def _decomposition_files(result: protocol.PostselectedResult) -> tuple[str, str]:
    """The fig2 curves CSV and SVG; warns when the window misses part of the state."""
    p, branch_b, branch_a, total = _decomposition_curves(result)
    share = float(np.trapezoid(total * total, p))
    if share < FIG2_WINDOW_SHARE:
        _emit_record("warning", "fig2-window",
                     f"the fig2 window p in [{p[0]:g}, {p[-1]:g}] sigma holds {share:.3g} of the "
                     "postselected state's squared norm; the curves show only part of it")
    curves_csv = table_csv("p,beta_branch,neg_alpha_branch,postselected", "%.8e,%.8e,%.8e,%.8e",
                           zip(p.tolist(), branch_b.tolist(), branch_a.tolist(), total.tolist()))
    image = svg.line_plot(
        [
            ("beta branch", p, branch_b),
            ("-alpha branch", p, branch_a),
            ("postselected", p, total),
        ],
        title="Postselected wavefunction decomposition",
        xlabel="p [hbar/W]",
        ylabel="amplitude",
    )
    return curves_csv, image


def cmd_simulate(args) -> int:
    built = build_scenario(_resolve_doc(args))
    display = UnitSystem(args.units) if args.units else built.units
    unit = _momentum_unit(built, display)

    validity = analysis.validity_check(built.scenario, n=built.grid_points)
    result, report = validity.exact, validity.report

    rows: list[tuple[str, object]] = [("units", display.value)]
    rows += [
        ("delta_a", built.scenario.delta_a / unit),
        ("delta_b", built.scenario.delta_b / unit),
        ("exact_mean", result.mean_kick / unit),
        ("exact_std", result.std / unit),
        ("postselection_probability", result.probability),
        ("delta_ef", report.effective_kick / unit),
        ("gain", report.gain),
        ("projector_weak_value_re", report.projector_weak_value.real),
        ("projector_weak_value_im", report.projector_weak_value.imag),
        ("postselection_overlap_re", report.postselection_overlap.real),
        ("postselection_overlap_im", report.postselection_overlap.imag),
        ("kick_ratio_a", validity.kick_ratio_a),
        ("kick_ratio_b", validity.kick_ratio_b),
        ("regime", validity.regime.value),
    ]

    _warn_grid_resolution(result, "the wavefunction.csv amplitudes")
    conditional = result.conditional
    shown = GridPacket(p=conditional.p / unit, amps=conditional.amps * math.sqrt(unit))
    buf = io.StringIO()
    to_csv(shown, buf, units=display.value, width=built.scenario.probe.width)

    files = {"summary.csv": summary_csv(rows), "wavefunction.csv": buf.getvalue()}
    if args.svg:
        curves_csv, image = _decomposition_files(result)
        files["fig2.svg"] = image
        files["fig2_curves.csv"] = curves_csv
    return _emit_bundle(args, files)


def _warn_outside_domain(params: ProtocolParams, field: str, solved: float) -> None:
    """Warn when the solved point breaks x_A < x_B or x_A >= 10 W; the run still succeeds.

    The fields are compared directly: a ProtocolParams at the solved point would raise.
    """
    point = {**vars(params), field: solved}
    x_a, x_b, limit = point["x_A"], point["x_B"], SEPARATION_FACTOR * point["W"]
    broken = []
    if x_a >= x_b:
        broken.append(f"x_A = {x_a:.3e} m >= x_B = {x_b:.3e} m")
    if x_a < limit:
        broken.append(f"x_A = {x_a:.3e} m < {SEPARATION_FACTOR:g} W = {limit:.3e} m")
    if broken:
        message = f"solved {field} puts the point outside the model's domain: "
        _emit_record("warning", "solve-domain", message + "; ".join(broken), field=field)


def cmd_feasibility(args) -> int:
    built = build_scenario(_resolve_doc(args))
    if built.params is None:
        raise ConfigError("feasibility needs physical (SI) kick parameters", field="kicks")
    if (args.solve is None) != (args.target is None):
        raise ConfigError("--solve and --target must be given together")

    s = built.scenario
    cases = evaluate_case(built.params, s.post, (s.phi_a, s.phi_b))
    rows: list[tuple[str, object]] = list(zip(cases.dtype.names, cases.tolist()[0]))
    if args.solve is not None:
        solved = solve_parameter(built.params, args.solve, args.target)
        _warn_outside_domain(built.params, args.solve, solved)
        rows.append((f"solved_{args.solve}", solved))
        rows.append(("solve_target", args.target))

    files = {
        "summary.csv": summary_csv(rows),
        "sweep.csv": sweep_csv(cases),
    }
    return _emit_bundle(args, files)


def cmd_montecarlo(args) -> int:
    built = build_scenario(_resolve_doc(args))
    if built.mc is None:
        raise ConfigError("montecarlo needs a montecarlo section (trials, seed)",
                          field="montecarlo")
    stats = montecarlo.run_ensemble(built.mc, workers=args.workers)
    _warn_grid_resolution(stats.exact, "the Monte Carlo draws")
    if stats.accepted < 2:
        _emit_record("warning", "under-powered",
                     f"{stats.accepted} of {stats.trials} trials accepted at P = "
                     f"{stats.exact.probability:.3g}; a kick estimate with a standard error "
                     "needs 2")
    rows = stats.summary_rows() + [
        ("seed", built.mc.seed),
        ("exact_probability", stats.exact.probability),
        ("exact_mean", stats.exact.mean_kick),
    ]
    files = {
        "summary.csv": summary_csv(rows),
        "histogram.csv": stats.histogram_csv(),
    }
    return _emit_bundle(args, files)


def _parse_axis(text: str):
    try:
        field, rng = text.split("=", 1)
        start, stop, count = rng.split(":")
        axis = (field.strip(), float(start), float(stop), int(count))
    except ValueError as exc:
        raise ConfigError(f"axis must look like FIELD=start:stop:count, got {text!r}") from exc
    if not (math.isfinite(axis[1]) and math.isfinite(axis[2])):
        raise ConfigError(f"axis bounds must be finite numbers, got {text!r}")
    return axis


def cmd_sweep(args) -> int:
    built = build_scenario(_resolve_doc(args))
    if built.params is None:
        raise ConfigError("sweep needs physical (SI) kick parameters", field="kicks")
    axes = [_parse_axis(args.axis)]
    if args.axis2:
        axes.append(_parse_axis(args.axis2))
    s = built.scenario
    cases = sweep(built.params, axes, args.workers, s.post, (s.phi_a, s.phi_b))

    files = {"sweep.csv": sweep_csv(cases)}
    rows: list[tuple[str, object]] = [("rows", len(cases))]
    for i, (field, start, stop, count) in enumerate(axes, start=1):
        rows.append((f"axis{i}", f"{field}={start:.8e}:{stop:.8e}:{count}"))
    files["summary.csv"] = summary_csv(rows)

    if args.svg:
        if len(axes) != 2:
            raise ConfigError("--svg heatmaps need two axes")
        (f1, s1, e1, c1), (f2, s2, e2, c2) = axes
        z = np.abs(cases.ratio).reshape(c1, c2)
        files["sweep.svg"] = svg.heatmap(
            np.linspace(s1, e1, c1),
            np.linspace(s2, e2, c2),
            z,
            title="|ratio| over the swept parameters",
            xlabel=f1,
            ylabel=f2,
        )
    return _emit_bundle(args, files)


def cmd_fig2(args) -> int:
    result = protocol.run(build_scenario(load_preset("fig2")).scenario)
    curves_csv, image = _decomposition_files(result)
    out = args.out or os.path.join(os.environ.get("GRAVKICK_OUT", "."), "fig2.svg")
    stem, _ = os.path.splitext(out)
    write_text_atomic(out, image)
    write_text_atomic(stem + ".csv", curves_csv)
    print(f"wrote {out} and {stem + '.csv'}")
    return 0


def cmd_presets(args) -> int:
    for name, description in preset_descriptions():  # "list", the only action
        print(f"{name}\t{description}")
    return 0


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", nargs="?", help="scenario config JSON file")
    parser.add_argument(
        "--scenario",
        choices=PRESET_NAMES,
        help="use a shipped preset instead of a config file",
    )
    parser.add_argument("--out", help="output directory (default: $GRAVKICK_OUT)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gravkick", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="exact + first-order postselected statistics")
    _add_config_args(p_sim)
    p_sim.add_argument("--units", choices=["si", "natural"], help="unit system for the summary")
    p_sim.add_argument("--svg", action="store_true", help="also render the decomposition plot")
    p_sim.set_defaults(func=cmd_simulate)

    p_feas = sub.add_parser("feasibility", help="kicks, ratio and spreading time from SI params")
    _add_config_args(p_feas)
    p_feas.add_argument("--solve", choices=SOLVABLE_FIELDS, help="invert the ratio for one field")
    p_feas.add_argument("--target", type=float, help="target ratio for --solve")
    p_feas.set_defaults(func=cmd_feasibility)

    p_mc = sub.add_parser("montecarlo", help="sample repeated postselected runs")
    _add_config_args(p_mc)
    p_mc.add_argument("--workers", type=int, default=1, help="accepted; the work runs serially")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_sweep = sub.add_parser("sweep", help="grid sweep of feasibility cases")
    _add_config_args(p_sweep)
    p_sweep.add_argument("--axis", required=True, help="FIELD=start:stop:count")
    p_sweep.add_argument("--axis2", help="second axis FIELD=start:stop:count")
    p_sweep.add_argument("--svg", action="store_true", help="heatmap of |ratio| (two axes)")
    p_sweep.add_argument("--workers", type=int, default=1, help="accepted; the work runs serially")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig2 = sub.add_parser("fig2", help="render the decomposition figure")
    p_fig2.add_argument("--out", help="output SVG path (curves CSV lands next to it)")
    p_fig2.set_defaults(func=cmd_fig2)

    p_presets = sub.add_parser("presets", help="preset management")
    p_presets.add_argument("action", choices=["list"])
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_record("error", "config", str(exc), field=exc.field)
        return 2
    except PostselectionImpossible as exc:
        _emit_record("error", "postselection-impossible", str(exc))
        return 1
    except (ValueError, OSError) as exc:
        _emit_record("error", "runtime", str(exc))
        return 1
    except ArithmeticError as exc:  # an intermediate over- or underflowed
        _emit_record("error", "runtime", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
