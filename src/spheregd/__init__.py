"""Riemannian gradient descent on the sphere: solvers and landscape probes."""
