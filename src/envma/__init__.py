"""Uniformly elliptic concave extension of the projected-determinant-root
operator det^{1/2n}(proj(.)) on Sym(2n), with certificates, an independent
grid oracle, and a policy-iteration Dirichlet solver for the induced
Bellman-form equation.

Importing the package loads no submodule.  Import names from the module that
defines them: `envma.matrixcore` (matrix maps), `envma.envelope` (the
envelope and its certificates), `envma.solver` (grids and the Dirichlet
solver), `envma.verify` (the property checks) and `envma.cli` (the commands).
"""

__version__ = "0.1.0"
