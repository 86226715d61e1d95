"""Command-line front end: scenario presets, CSV/SVG bundles, sweeps.

Subcommands: simulate, feasibility, montecarlo, sweep, fig2, presets.
Output always lands as a bundle of atomically written files in one directory:
--out, else $GRAVKICK_OUT, else gravkick-out; fig2's --out names its SVG there.
Errors produce a one-line JSON record on stderr next to the human-readable
message, and a nonzero exit code; warnings use the same two lines and leave
the exit code at 0.
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
from typing import TYPE_CHECKING

import numpy as np

from .config import (
    PRESET_NAMES,
    BuiltScenario,
    ConfigError,
    build_scenario,
    load_config,
    load_preset,
    preset_descriptions,
)
from .output import format_value, summary_csv, table_csv, write_bundle
from .units import SOLVABLE_FIELDS, UNITS

if TYPE_CHECKING:  # each command imports the modules it runs; svg only for a figure
    from .feasibility import ProtocolParams
    from .protocol import PostselectedResult

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


def _warn_grid_resolution(result: PostselectedResult, use: str) -> None:
    """Warn when the rendered conditional state misses the exact mean or std by over
    GRID_TOLERANCE std; the run still succeeds."""
    from .wavepacket import moments

    grid = moments(result.conditional)
    miss = max(abs(grid.mean - result.mean_kick), abs(grid.std - result.std)) / result.std
    if miss > GRID_TOLERANCE:
        n = result.conditional.p.size
        message = (f"the {n}-point grid of the conditional state misses the exact mean or std "
                   f"by {miss:.2g} std; {use} come from that grid")
        _emit_record("warning", "grid-resolution", message, field="probe.grid_points")


def _bundle_dir(args) -> str:
    return args.out or os.environ.get("GRAVKICK_OUT") or "gravkick-out"


def _out_dir(out: str, names=()) -> str:
    """The bundle directory `out`, refused if it is, or lies under, an existing file, or if
    one of its member paths `names` is an existing directory: either would fail the write."""
    head = os.path.abspath(out)
    while not os.path.isdir(head):  # the root is a directory
        if os.path.lexists(head):
            raise ConfigError(f"cannot make the bundle directory {out!r}: {head!r} is a file",
                              field="--out")
        head = os.path.dirname(head)
    for name in names:
        path = os.path.join(out, name)
        if os.path.isdir(path):
            raise ConfigError(f"cannot write the bundle file {path!r}: it is a directory",
                              field="--out")
    return out


def _emit_bundle(out: str, files: dict[str, str]) -> int:
    write_bundle(_out_dir(out, files), files)
    print(f"wrote {', '.join(sorted(files))} to {out}")
    return 0


# Each scenario command's bundle files, in the order its function returns their texts, and
# the files that --svg adds (sweep refuses --svg without two axes)
_BUNDLE_FILES = {
    "simulate": (("summary.csv", "wavefunction.csv"), ("fig2.svg", "fig2_curves.csv")),
    "feasibility": (("summary.csv", "sweep.csv"), ()),
    "montecarlo": (("summary.csv", "histogram.csv"), ()),
    "sweep": (("sweep.csv", "summary.csv"), ("sweep.svg",)),
}


def _run_scenario(args) -> int:
    """A scenario command, in order: check every bundle path, so that a long run cannot end
    at a file it cannot write; read and build the document; compute; write the bundle."""
    plain, with_svg = _BUNDLE_FILES[args.command]
    names = plain + with_svg if getattr(args, "svg", False) else plain
    out = _out_dir(_bundle_dir(args), names)
    if args.scenario and args.config:
        raise ConfigError("give either a config file or --scenario, not both", field="--scenario")
    if not (args.scenario or args.config):
        raise ConfigError("a config file or --scenario preset is required", field="--scenario")
    built = build_scenario(load_preset(args.scenario) if args.scenario
                           else load_config(args.config))
    if built.params is None and args.command in ("feasibility", "sweep"):
        raise ConfigError(f"{args.command} needs physical (SI) kick parameters", field="kicks")
    return _emit_bundle(out, dict(zip(names, args.compute(args, built), strict=True)))


def _momentum_unit(built: BuiltScenario, display: str) -> float:
    """Factor dividing scenario momenta for display in `display` units."""
    if display == built.units:
        return 1.0
    if built.units == "natural":
        raise ConfigError("natural-unit scenarios have no SI anchor; cannot convert",
                          field="--units")
    return built.scenario.probe.sigma  # one natural momentum unit, hbar/W in SI


def _decomposition_curves(result: PostselectedResult):
    """A run's two branch pointers and their sum over sqrt(2 P), in natural units.

    Each Gaussian psi_X is read at p sigma and scaled by sqrt(sigma).  The branches are
    sqrt(2) w_X psi_X turned to make w_B real: beta psi_B and -alpha psi_A for the paper
    postselection.  Each curve is its modulus signed by its real part.
    """
    (w_a, psi_a), (w_b, psi_b) = result.terms
    sigma = psi_b.sigma
    scale = math.sqrt(2.0) * math.sqrt(sigma) * cmath.exp(-1j * cmath.phase(w_b))
    p = np.linspace(-4.0, 4.0, FIG2_SAMPLES)
    branch_b = scale * w_b * psi_b(p * sigma)
    branch_a = scale * w_a * psi_a(p * sigma)
    total = (branch_b + branch_a) / math.sqrt(2.0) / math.sqrt(result.probability)
    return p, *(np.copysign(np.abs(z), z.real) for z in (branch_b, branch_a, total))


def _decomposition_files(result: PostselectedResult) -> tuple[str, str]:
    """The fig2 SVG and curves CSV; warns when the window misses part of the state."""
    from . import svg

    p, branch_b, branch_a, total = _decomposition_curves(result)
    share = float(np.trapezoid(total * total, p))
    if share < FIG2_WINDOW_SHARE:
        _emit_record("warning", "fig2-window",
                     f"the fig2 window p in [{p[0]:g}, {p[-1]:g}] sigma holds {share:.3g} of the "
                     "postselected state's squared norm; the curves show only part of it")
    curves_csv = table_csv("p,beta_branch,neg_alpha_branch,postselected",
                           (p, branch_b, branch_a, total))
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
    return image, curves_csv


def cmd_simulate(args, built: BuiltScenario) -> tuple[str, ...]:
    from . import analysis
    from .wavepacket import GridPacket, to_csv

    display = args.units or built.units
    unit = _momentum_unit(built, display)

    validity = analysis.validity_check(built.scenario, n=built.grid_points)
    result, report = validity.exact, validity.report
    first_order, first_order_error = analysis.run_first_order(result)

    rows: list[tuple[str, object]] = [("units", display)]
    rows += [
        ("delta_a", built.scenario.delta_a / unit),
        ("delta_b", built.scenario.delta_b / unit),
        ("exact_mean", result.mean_kick / unit),
        ("exact_std", result.std / unit),
        ("postselection_probability", result.probability),
        ("delta_ef", report.effective_kick / unit),
        ("gain", report.gain),
        ("first_order_mean", None if first_order is None else first_order / unit),
        ("first_order_error", first_order_error),
        ("projector_weak_value_re", report.projector_weak_value.real),
        ("projector_weak_value_im", report.projector_weak_value.imag),
        ("postselection_overlap_re", report.postselection_overlap.real),
        ("postselection_overlap_im", report.postselection_overlap.imag),
        ("kick_ratio_a", validity.kick_ratio_a),
        ("kick_ratio_b", validity.kick_ratio_b),
        ("regime", validity.regime),
    ]

    _warn_grid_resolution(result, "the wavefunction.csv amplitudes")
    conditional = result.conditional
    shown = GridPacket(p=conditional.p / unit, amps=conditional.amps * math.sqrt(unit))
    buf = io.StringIO()
    to_csv(shown, buf, units=display, width=built.scenario.probe.width)

    texts = (summary_csv(rows), buf.getvalue())
    return texts + _decomposition_files(result) if args.svg else texts


def _warn_outside_domain(params: ProtocolParams, field: str, solved: float) -> None:
    """Warn when the solved point breaks x_A < x_B or x_A >= 10 W; the run still succeeds.

    The fields are compared directly: a ProtocolParams at the solved point would raise.
    """
    from .feasibility import SEPARATION_FACTOR

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


def cmd_feasibility(args, built: BuiltScenario) -> tuple[str, ...]:
    from .feasibility import solve_parameter, sweep_csv

    if (args.solve is None) != (args.target is None):
        raise ConfigError("--solve and --target must be given together",
                          field="--target" if args.target is not None else "--solve")

    rows: list[tuple[str, object]] = [(name, column.item()) for name, column in built.case.items()]
    if args.solve is not None:
        solved = solve_parameter(built.params, args.solve, args.target)
        _warn_outside_domain(built.params, args.solve, solved)
        rows.append((f"solved_{args.solve}", solved))
        rows.append(("solve_target", args.target))
    return summary_csv(rows), sweep_csv(built.case)


def cmd_montecarlo(args, built: BuiltScenario) -> tuple[str, ...]:
    from . import montecarlo

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
    return summary_csv(rows), stats.histogram_csv()


def _parse_axis(text: str, flag: str):
    try:
        field, rng = text.split("=", 1)
        start, stop, count = rng.split(":")
        return field.strip(), float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"axis must look like FIELD=start:stop:count, got {text!r}",
                          field=flag) from exc


def cmd_sweep(args, built: BuiltScenario) -> tuple[str, ...]:
    from .feasibility import check_axes, sweep, sweep_csv

    flags = ("--axis", "--axis2") if args.axis2 else ("--axis",)
    axes = []
    for text, flag in zip((args.axis, args.axis2), flags):
        axes.append(_parse_axis(text, flag))
        try:  # the first axis alone, then with the second: a refusal names the flag that added it
            check_axes(axes)
        except ValueError as exc:  # the command line's axes, not a point of the sweep
            raise ConfigError(str(exc), field=flag) from exc
    if args.svg and len(axes) != 2:
        raise ConfigError("--svg heatmaps need two axes", field="--svg")
    s = built.scenario
    cases = sweep(built.params, axes, args.workers, s.post, (s.phi_a, s.phi_b))

    rows: list[tuple[str, object]] = [("rows", cases["M"].size)]
    for i, (field, start, stop, count) in enumerate(axes, start=1):
        rows.append((f"axis{i}", f"{field}={format_value(start)}:{format_value(stop)}:{count}"))
    texts = (sweep_csv(cases), summary_csv(rows))
    if not args.svg:
        return texts
    from . import svg

    (f1, _, _, c1), (f2, _, _, c2) = axes
    z = np.abs(cases["ratio"]).reshape(c1, c2)
    return *texts, svg.heatmap(cases[f1][::c2], cases[f2][:c2], z, xlabel=f1, ylabel=f2,
                               title="|ratio| over the swept parameters")


def cmd_fig2(args) -> int:
    from . import protocol

    out = args.out or os.path.join(_bundle_dir(args), "fig2.svg")
    directory, svg_name = os.path.split(out)
    csv_name = os.path.splitext(svg_name)[0] + ".csv"
    if svg_name in ("", csv_name):
        problem = "is also the curves CSV path" if svg_name else "ends in a separator"
        raise ConfigError(f"--out {out!r} {problem}; give --out the SVG's file path",
                          field="--out")
    directory = _out_dir(directory or os.curdir, (svg_name, csv_name))
    texts = _decomposition_files(protocol.run(build_scenario(load_preset("fig2")).scenario))
    return _emit_bundle(directory, dict(zip((svg_name, csv_name), texts)))


def cmd_presets(args) -> int:
    for name, description in preset_descriptions():  # "list", the only action
        print(f"{name}\t{description}")
    return 0


def _add_config_args(parser: argparse.ArgumentParser, compute) -> None:
    parser.set_defaults(func=_run_scenario, compute=compute)
    parser.add_argument("config", nargs="?", help="scenario config JSON file")
    parser.add_argument(
        "--scenario",
        choices=PRESET_NAMES,
        help="use a shipped preset instead of a config file",
    )
    parser.add_argument("--out", help="bundle directory (default: $GRAVKICK_OUT or gravkick-out)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gravkick", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="exact + first-order postselected statistics")
    _add_config_args(p_sim, cmd_simulate)
    p_sim.add_argument("--units", choices=UNITS, help="unit system for the summary")
    p_sim.add_argument("--svg", action="store_true", help="also render the decomposition plot")

    p_feas = sub.add_parser("feasibility", help="kicks, ratio and spreading time from SI params")
    _add_config_args(p_feas, cmd_feasibility)
    p_feas.add_argument("--solve", choices=SOLVABLE_FIELDS, help="invert the ratio for one field")
    p_feas.add_argument("--target", type=float, help="target ratio for --solve")

    p_mc = sub.add_parser("montecarlo", help="sample repeated postselected runs")
    _add_config_args(p_mc, cmd_montecarlo)
    p_mc.add_argument("--workers", type=int, default=1, help="accepted; the work runs serially")

    p_sweep = sub.add_parser("sweep", help="grid sweep of feasibility cases")
    _add_config_args(p_sweep, cmd_sweep)
    p_sweep.add_argument("--axis", required=True, help="FIELD=start:stop:count")
    p_sweep.add_argument("--axis2", help="second axis FIELD=start:stop:count")
    p_sweep.add_argument("--svg", action="store_true", help="heatmap of |ratio| (two axes)")
    p_sweep.add_argument("--workers", type=int, default=1, help="accepted; the work runs serially")

    p_fig2 = sub.add_parser("fig2", help="render the decomposition figure")
    p_fig2.add_argument("--out", help="output SVG path, the curves CSV next to it "
                        "(default: fig2.svg in $GRAVKICK_OUT or gravkick-out)")
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
    except (ValueError, OSError, MemoryError) as exc:  # numpy's names the array it cannot make
        from .protocol import PostselectionImpossible  # loaded by the run that raised it

        impossible = isinstance(exc, PostselectionImpossible)
        _emit_record("error", "postselection-impossible" if impossible else "runtime", str(exc))
        return 1
    except ArithmeticError as exc:  # an intermediate over- or underflowed
        _emit_record("error", "runtime", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":  # the entry point is gravkick.__main__, which this would bypass
    _emit_record("error", "usage", "gravkick.cli is not an entry point; run `python -m gravkick`")
    sys.exit(2)
