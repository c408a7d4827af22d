"""Literal predecessors of optimized code paths, kept as test oracles.

Each module here holds the straightforward implementation a fast path
replaced, copied verbatim, so property tests can drive both on the
same random states and demand identical decisions.
"""
