"""Physical constants, the two unit systems a scenario is stated in, and the limits and
names a scenario document and the command line are held to.

The natural system sets hbar = 1, measures lengths in units of the probe
width parameter W and keeps the kilogram as the mass base.  Momentum then
comes out in units of hbar/W, the momentum spread of an SI probe, which is
how the interferometer scenarios are parameterized.

The limits live here, in a module that imports nothing, so that `config` and `cli` can
read them without loading the modules that enforce them: `wavepacket` re-exports the grid
sizes and `montecarlo` the run limits, `feasibility` the solvable fields.
"""

# CODATA 2018, fixed at build time for reproducibility.
G = 6.67430e-11  # gravitational constant [m^3 kg^-1 s^-2]
HBAR = 1.054571817e-34  # reduced Planck constant [J s]

# The names of the unit systems, as config files, `simulate --units` and the CSVs spell them.
UNITS = ("si", "natural")

DEFAULT_GRID_POINTS = 2048
MIN_GRID_POINTS = 16
DEFAULT_HISTOGRAM_BINS = 64
MAX_TRIALS = 2**63 - 1  # the count's position sums reach 2 * it + 1, the uint64 top
MAX_SEED = 2**128 - 1  # a 128-bit seed above the 64-bit block index

# The fields `feasibility.solve_parameter` inverts the ratio for, as `--solve` names them.
SOLVABLE_FIELDS = ("M", "m", "W", "T", "x_A", "g")
