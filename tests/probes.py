"""Grid probes built the way API users build them: GridPacket(p=p, amps=psi(p))."""

import numpy as np

from gravkick.wavepacket import GridPacket


def grid_probe(psi, p_min, p_max, n=2048):
    """`psi` sampled on n uniform momenta from p_min to p_max."""
    p = np.linspace(p_min, p_max, n)
    return GridPacket(p=p, amps=psi(p))
