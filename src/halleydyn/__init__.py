"""Dynamics of Halley's method on complex polynomials.

Build the Halley map (or its Koenig / Chebyshev-Halley relatives) of a
polynomial as an explicit reduced rational map, classify its fixed
points, compute basins of attraction on pixel grids, estimate rotation
symmetry, and hunt parameters with superattracting two-cycles in the
cubic family z**3 + 6z + b.
"""
