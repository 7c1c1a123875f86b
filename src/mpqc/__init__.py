"""Exact-arithmetic construction and verification of matrix product quantum codes.

Each name is imported from the module that defines it (``mpqc.gf``,
``mpqc.matrix``, ``mpqc.code``, ``mpqc.product``, ...); the package root
holds only the version.
"""

__version__ = "0.1.0"
