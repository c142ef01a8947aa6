"""The cutoff ladder built one rung at a time, kept as an oracle.

Every rung is a RelativeProfile cut with ``truncate`` (a factor no deeper
than the cutoff is its own cut), and every energy along it is
``energy.ep_integral`` of that cut, which builds the cut's measure anew.
This is the product ladder's own path, which ``energy.Ladder`` follows
with each cut and measure built once per ladder; a radial
``energy.cutoffs`` ladder is built in row blocks instead.  Both must give
the verdicts of this one, bit for bit.
"""

from ma_lab import energy
from ma_lab.models import backend, factors
from ma_lab.profiles import truncate


def reference_cutoffs(model, phi, start=1.0):
    """(ks, cuts, depth): the cutoffs, the cut potentials and phi's depth."""
    fs = factors(model, phi, "ep_limit")
    depths = [-f.offset.min() for f in fs]
    depth = max(depths)
    ks = energy.cutoff_ladder(depth, start)
    cuts = [backend(model).join(tuple(truncate(f, k) if d > k else f
                                      for f, d in zip(fs, depths))) for k in ks]
    return ks, cuts, depth


def reference_ladder_limit(model, ladder, p, j=2):
    """The verdict of the (p, j) energies along a reference_cutoffs ladder."""
    ks, cuts, depth = ladder
    return energy.ladder_verdict(ks, [energy.ep_integral(model, c, p, j) for c in cuts], depth)
