"""The benchmark's workloads: generated cgtsim configs, seeds and pinned values.

Each workload is one experiment config that the benchmark writes to disk and
hands to ``cgtsim run``.  The program sees only that config.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 0  # pinned values below hold at this seed

_DGT = {"algo": "dgt", "params": {"eta": 0.8, "gamma": 0.3}}
_ALG1 = {"algo": "alg1", "compressor": {"kind": "norm_sign"},
         "params": {"eta": 0.8, "gamma": 0.3, "phi_x": 0.3, "phi_y": 0.1}}
_ALG2 = {"algo": "alg2", "compressor": {"kind": "norm_sign"},
         "params": {"eta": 0.8, "gamma": 0.3, "phi_x": 0.3, "phi_y": 0.1,
                    "varsigma": 0.3}}
_ALG3_UNIFORM = {"algo": "alg3",
                 "compressor": {"kind": "uniform_quantize", "delta": 2.0},
                 "params": {"eta": 0.4, "gamma": 0.6, "mu": 0.98}}


def _forced(cell: dict) -> dict:
    return dict(copy.deepcopy(cell), force_params=True)


def _certified(algo: str, kind: str) -> dict:
    return {"algo": algo, "compressor": {"kind": kind}, "mode": "certified"}


def _sparse_n1000(harness) -> dict:
    """About 9 nonzeros per row of W.  All four methods run, so every
    per-method iteration cost is measured on every workload."""
    return {
        "scenario": "sparse_n1000",
        "iters": 50,
        "threshold": 1e-3,
        "network": {"n": 1000, "edge_density": 0.008, "topology": "random"},
        "cost": {"kind": "logistic_log", "d": 50, "scale": 0.1,
                 "abs_m": True},
        "cells": [_forced(c) for c in (_DGT, _ALG1, _ALG2, _ALG3_UNIFORM)],
    }


def _quad_n100(harness) -> dict:
    """Certified alg2 and alg3/one_bit cells exercise the bound calculators;
    alg3/one_bit takes the scaled-local path, which needs ``nu_pl``."""
    return {
        "scenario": "quad_n100",
        "iters": 100,
        "threshold": 1e-3,
        "network": {"n": 100, "edge_density": 0.08, "topology": "random"},
        "cost": {"kind": "quadratic_pl", "d": 100, "rows": 100},
        "cells": [_forced(_DGT), _forced(_ALG1),
                  _certified("alg2", "norm_sign"),
                  _certified("alg3", "one_bit"),
                  _forced(_ALG3_UNIFORM)],
    }


def _paper_n20(harness) -> dict:
    """Exactly the ``replicate-section5`` default."""
    return harness.reference_scenario_config("practical")


# name -> (config builder, seeds at DEFAULT_SEED, host-speed probe mix).  The
# probe mix follows where the workload spends its time (see BENCHMARK.json):
# paper-n20 on per-call overhead, sparse-n1000 on dense W products, quad-n100
# on einsums over its cost tensor.  The workload seed moves only the algo seed (initial point and compressor draws): the graph and cost
# instance stay fixed, because their set-up cost depends strongly on the draw
# and would swamp the run-to-run spread.  BENCHMARK.json says why each
# workload is here.
WORKLOADS = {
    "paper-n20": (_paper_n20, {"graph": 101, "cost": 202, "algo": 404},
                  {"calls": 1.0}),
    "sparse-n1000": (_sparse_n1000, {"graph": 1, "cost": 2, "algo": 3},
                     {"matmul": 0.8, "calls": 0.2}),
    "quad-n100": (_quad_n100, {"graph": 1, "cost": 2, "algo": 3},
                  {"einsum": 0.7, "calls": 0.3}),
}

# Values a correct program reproduces at DEFAULT_SEED, per cell label:
# (iters to the 1e-3 threshold, bits to it, final running minimum).  The
# running minimum must match within UPSILON_RTOL relative or UPSILON_ATOL
# absolute; the paper-n20 minima sit at round-off level.
UPSILON_RTOL, UPSILON_ATOL = 1e-6, 1e-12
PINNED = {
    "paper-n20": {
        "dgt_exact": (419, 53632000, 1.1935665979227942e-15),
        "alg1_norm_sign": (431, 2827360, 2.50446875744989e-15),
        "alg2_norm_sign": (415, 5444800, 7.690342836195242e-16),
        "alg3_uniform_quantize": (499, 3992000, -4.163336119999273e-17),
        "alg3_one_bit": (364, 728000, -5.551114910970239e-17),
    },
    "sparse-n1000": {
        "dgt_exact": (None, None, 18.227255451517376),
        "alg1_norm_sign": (None, None, 20.008725007527904),
        "alg2_norm_sign": (None, None, 18.423681714148177),
        "alg3_uniform_quantize": (None, None, 42899.707111261996),
    },
    "quad-n100": {
        "dgt_exact": (None, None, 2.071894350377284),
        "alg1_norm_sign": (None, None, 2.9821797511215693),
        "alg2_norm_sign_certified": (None, None, 11566.922979576368),
        "alg3_one_bit_certified": (None, None, 11563.87236383379),
        "alg3_uniform_quantize": (None, None, 1668.4744482801225),
    },
}


def derive_seeds(workload: str, seed: int) -> dict:
    base = WORKLOADS[workload][1]
    return dict(base, algo=base["algo"] + seed - DEFAULT_SEED)


def make_config(workload: str, seed: int, harness) -> dict:
    """The config the program receives."""
    doc = WORKLOADS[workload][0](harness)
    doc["seeds"] = derive_seeds(workload, seed)
    return doc
