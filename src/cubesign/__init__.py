"""Signatures over the algebra of integer polynomials with x_i**2 = x_i.

Keys are automorphisms that permute the Boolean cube; verification compares
Monte-Carlo estimates of positive-value proportions instead of recomputing
the signature.
"""
