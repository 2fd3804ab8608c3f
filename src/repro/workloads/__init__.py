"""Synthetic DNA workload generation."""

from .datasets import PairBatch, paper_workload, sweep_workloads
from .dna import (MutationModel, homologous_pairs, mutate, plant_homology,
                  random_strand, random_strands)
from .traffic import TimedRequest, poisson_arrivals, request_stream

__all__ = [
    "random_strands", "random_strand", "MutationModel", "mutate",
    "plant_homology", "homologous_pairs",
    "PairBatch", "paper_workload", "sweep_workloads",
    "TimedRequest", "poisson_arrivals", "request_stream",
]
