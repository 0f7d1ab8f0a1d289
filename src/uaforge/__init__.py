"""Finite universal-algebra workbench: tables, formulas, congruences, claims."""

__version__ = "0.1.0"
