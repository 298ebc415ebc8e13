"""Build 6-dimensional fixed-point data modelled on X x Sigma_g.

For a toric surface X with isolated fixed points, the product with a
genus-g curve (circle acting on the X factor) has fixed surfaces
{p} x Sigma_g with the weights of p, trivial normal degrees, and one
isotropy 4-manifold per isotropy sphere of X.  Every fixed surface meets
the obvious fibre X x {pt} once.  This gives honest datasets for the
graph-correspondence and small-Hamiltonian machinery, with ids shared
with the fibre's Karshon graph vertices.
"""

from __future__ import annotations

from dataclasses import replace

from hamfano.fixed_data import FixedPointData, GradientEdge
from hamfano.toric import LatticePolytope, fixed_data_from_polytope


def lift_product(p: LatticePolytope, xi, genus: int) -> FixedPointData:
    base = fixed_data_from_polytope(p, xi)
    if any(c.kind != "point" for c in base.components):
        raise ValueError("lift_product needs a generic direction")
    comps = [
        replace(c, kind="surface", genus=genus, normal_degrees=(0, 0), fibre_intersection=1)
        for c in base.components
    ]
    edges = tuple(
        GradientEdge(bottom=e.bottom, top=e.top, weight=e.weight)
        for e in base.edges
        if e.weight >= 2
    )
    return FixedPointData(
        half_dim=3,
        components=tuple(comps),
        edges=edges,
        relative_fano=True,
        fano=False,
    )
