"""Communication-compressed gradient-tracking simulator.

Decentralized nonconvex optimization over doubly stochastic mixing networks
with three compressed tracker variants, pluggable compression operators,
certified parameter regions, a recorded Lyapunov column, and transmitted-bit
accounting.
"""

from .algorithms import AlgorithmParams, RunTrace, run
from .compressors import BitCostModel, CompressorSpec, bit_cost, compress, make_compressor
from .costs import CostSuite, generate_suite, solve_reference
from .graph import Network, generate_network, spectral_gap

__all__ = [
    "AlgorithmParams", "BitCostModel", "CompressorSpec", "CostSuite",
    "Network", "RunTrace", "bit_cost", "compress", "generate_network",
    "generate_suite", "make_compressor", "run", "solve_reference",
    "spectral_gap",
]

__version__ = "0.1.0"
