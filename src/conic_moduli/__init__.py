"""Tools for constant-curvature surfaces with clustering conical singularities.

The package is organized around the pipeline

    lattice  -- combinatorics of coalescence strata (laminar cluster trees),
    charts   -- one iterated polar chart and blowdown for a chain of merging clusters,
    cones    -- exact cone-angle bookkeeping (Gauss-Bonnet, merging, Troyanov),
    flat     -- exact flat conic metrics built from logarithmic potentials,
    phg      -- asymptotic-series machinery (index sets, indicial recursion),
    solver   -- discrete conic Laplacians and nonlinear Liouville solvers,
    cli      -- the ``conic-moduli`` command line front end.
"""

__version__ = "0.1.0"
