"""Referees for the hyhe pipeline, used only by the tests.

Independent routes to what `hyhe` computes: the ln u integral family and
quadrature engines (`integrals`), the exponential-polynomial differentiation
route (`basis`), pointwise integrands for the expectation values
(`matrices`), and the Cartesian probes, product-state closed forms, mpmath
eigensolve, Fraction assembly, mpf series and Duffy-split Gauss rule
(`oracles`).
"""
