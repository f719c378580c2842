"""Tools for the doubling random walk x_{k+1} = 2 x_k + b_k (mod p).

Submodules:
  process       chain parameters, digit strings, trajectory sampling
  distribution  exact distribution evolution on Z/pZ and its functionals
  canonical     standard forms, block structure, the pair table
  stats         adjacent-pair statistics, exhaustive and Monte Carlo
  bounds        mixing rate constants and counting bounds
  cli           the `cdg` command line interface

Import names from their submodules: `import cdgproc` loads none of them.
"""

__version__ = "0.1.0"
