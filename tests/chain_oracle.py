"""Reference chain homology for the tests.

``unreduced_homology`` is the plain form of ``ChainComplex.homology``: it
hands each raw boundary d_n to ``abgroup._Analysis`` as it stands, with no
unit pairs eliminated first.  H_n has free rank rank C_n - rank d_n -
rank d_{n+1} and the invariant factors (> 1) of d_{n+1} as torsion.
"""

from cutpaste.abgroup import _Analysis
from cutpaste.chains import ChainComplex, HomologyType


def unreduced_homology(c: ChainComplex) -> HomologyType:
    data = {}
    for n in c.degrees():
        d = c.boundary_at(n)
        a = _Analysis(d.rows, d.columns)
        data[n] = (a.lattice.rank, a.torsion)
    groups = []
    for n in c.degrees():
        rank_up, torsion = data.get(n + 1, (0, ()))
        groups.append((c.rank_at(n) - data[n][0] - rank_up, torsion))
    return HomologyType(lo=c.lo, groups=tuple(groups))
