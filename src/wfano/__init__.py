"""Exact-arithmetic certificate checker for the 95 weighted Fano threefold
hypersurface families: enumeration, singularity census, blow-up intersection
numbers, and per-point exclusion/untwisting certificates verified against
the reference tables."""
