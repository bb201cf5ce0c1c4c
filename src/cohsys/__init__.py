"""Exact weight-stability of coherent section pairs on the projective line."""
