"""Shared test builders: grid probes built the way API users build them,
GridPacket(p=p, amps=psi(p)), the fig2 scenario, and a child python's environment."""

import os
from pathlib import Path

import numpy as np

import gravkick
from gravkick.protocol import Scenario, SourceState, paper_postselection
from gravkick.wavepacket import GaussianPacket, GridPacket

from .refvals import FIG2_ALPHA, FIG2_BETA, FIG2_DELTA_A, FIG2_DELTA_B


def grid_probe(psi, p_min, p_max, n=2048):
    """`psi` sampled on n uniform momenta from p_min to p_max."""
    p = np.linspace(p_min, p_max, n)
    return GridPacket(p=p, amps=psi(p))


def fig2_scenario(**overrides) -> Scenario:
    """The fig2 preset's natural-unit scenario, with `overrides` replacing its fields."""
    kwargs = dict(
        pre=SourceState(complex(FIG2_ALPHA), complex(FIG2_BETA)),
        post=paper_postselection(),
        probe=GaussianPacket(0.0, 1.0, 1.0),
        delta_a=FIG2_DELTA_A,
        delta_b=FIG2_DELTA_B,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def child_env() -> dict[str, str]:
    """The environment of a child python that imports the copy of the package these tests
    import, whether or not PYTHONPATH names it."""
    src = str(Path(gravkick.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
