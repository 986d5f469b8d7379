"""Degree-one forms on configuration graphs.

Differentials, path integrals, solving a closed form for its potential,
and the dimension count that makes "closed = exact" checkable at finite
window size.
"""

from fractions import Fraction as F

import colocal as cl
from colocal import linalg

exclusion = cl.exclusion_interaction()
nu = cl.bernoulli(F(1, 2))
mu = cl.ProductMeasure(nu)

path3 = cl.lattice_window(1, radius=1)
sites = cl.siteset(path3.sites)

f = cl.site_occupation(sites, 2, -1) * cl.site_occupation(sites, 2, 1)
omega = cl.differential(f, exclusion, path3)
print("edges carrying the differential:", omega.edges)

# Path integrals of a differential telescope to the endpoint difference.
gamma = cl.Path(cl.Config(sites, (1, 0, 0)), ((-1, 0), (0, 1)))
end = cl.path_configs(gamma, exclusion)[-1]
print("integral along the path:", cl.path_integral(omega, gamma))
print("f(end) - f(start):       ",
      f.value_at(end.assignment) - f.value_at((1, 0, 0)))

# Solving recovers a potential up to a locked constant per component.
g = cl.solve_potential(omega, mu)
print("recovered potential has the same differential:",
      all(cl.differential(g, exclusion, path3).tables[e].equals(
          omega.tables[e]) for e in omega.edges))

# A form with a net circulation is rejected with a witness cycle.
triangle = cl.build_locale([0, 1, 2],
                           [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
tri_sites = cl.siteset([0, 1, 2])


def one_at(indices):
    values = [F(0)] * 8
    for idx, sign in indices:
        values[idx] = F(sign)
    return cl.FnTable(tri_sites, 2, tuple(values))


circulating = cl.make_form(
    tri_sites, exclusion, [(0, 1), (0, 2), (1, 2)],
    {(0, 1): one_at([(1, 1), (2, -1)]),
     (1, 2): one_at([(2, 1), (4, -1)]),
     (0, 2): one_at([(4, 1), (1, -1)])})
try:
    cl.solve_potential(circulating, mu)
except cl.NotClosed as err:
    print("rejected with witness cycle of integral", err.integral)
    print("re-integrating the witness:",
          cl.path_integral(circulating, err.witness))

# Dimension audit: closed forms = image of the differential.  Its rank,
# by elimination over the differentials of the 8 configuration indicators,
# against the count from the kernel's components.
kb = cl.kernel_basis(sites, exclusion, path3, mu)
size = 2 ** len(sites)
print("components:", kb.n_components)
indicators = [cl.FnTable(sites, 2, tuple(F(int(i == k)) for i in range(size)))
              for k in range(size)]
rows = [[v for e in d.edges for v in d.dense_table(e).values]
        for d in (cl.differential(x, exclusion, path3) for x in indicators)]
print("dim closed forms (rank of d on the 8 configurations):",
      linalg.rank(rows))
print("dim C0 - dim(Ker within C0):", (size - 1) - (kb.n_components - 1))
