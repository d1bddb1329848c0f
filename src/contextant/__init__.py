"""Exact classicality analysis for the tilted spin-1 pair-measurement family.

Decides, with certificates, whether the family of compatible dichotomic
spin-1 pair measurements at tilt angle theta admits a noncontextual
hidden-variable description, and demonstrates that the answer is a
discontinuous function of the angle.
"""

__version__ = "0.1.0"
