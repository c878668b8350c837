"""Instrumented reference workloads: K-means, Monte Carlo pi, synthetic."""

from .kmeans import KMeansSpec, generate_dataset, kmeans_parallel, kmeans_serial
from .montecarlo import PiSpec, monte_carlo_pi
from .synthetic import SyntheticSpec, synthetic_run

__all__ = [
    "KMeansSpec",
    "PiSpec",
    "SyntheticSpec",
    "generate_dataset",
    "kmeans_serial",
    "kmeans_parallel",
    "monte_carlo_pi",
    "synthetic_run",
]
