"""Exact classification toolkit for rank-2 pole-order-1 connection families
over the 2-dimensional nilpotent base germ, with Euler-field analysis.

The package root imports nothing: each name is imported from the module
that defines it, e.g. ``from connexa.formalnf import formal_normal_form``."""

__version__ = "0.1.0"
