"""Physical constants and the two unit systems a scenario is stated in.

The natural system sets hbar = 1, measures lengths in units of the probe
width parameter W and keeps the kilogram as the mass base.  Momentum then
comes out in units of hbar/W, the momentum spread of an SI probe, which is
how the interferometer scenarios are parameterized.
"""

# CODATA 2018, fixed at build time for reproducibility.
G = 6.67430e-11  # gravitational constant [m^3 kg^-1 s^-2]
HBAR = 1.054571817e-34  # reduced Planck constant [J s]

# The names of the unit systems, as config files, `simulate --units` and the CSVs spell them.
UNITS = ("si", "natural")
