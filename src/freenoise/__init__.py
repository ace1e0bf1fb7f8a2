"""Free stochastic calculus in the Chebyshev basis.

Exact trace engines for words in a free semicircular family, weighted
symmetric Fock spaces with the product inequality that makes them
algebras, spectral-density covariance kernels, the frequency-multiplier
operator with its coefficient growth certificates, white-noise
derivatives and Riemann-sum stochastic integrals, and a random-matrix
Monte Carlo oracle.  The ``freenoise`` command line exposes each piece.
"""
