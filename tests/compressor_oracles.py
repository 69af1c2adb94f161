"""Compressor oracles for the tests: the first recorded violation of a
``compressors.VerifyReport``, shown when a certification test fails, and a
spec that claims constants its operator does not meet."""

import copy

from cgtsim.compressors import CompressorSpec, VerifyReport


def worst_case(report: VerifyReport):
    return report.violations[0] if report.violations else None


def claiming(spec: CompressorSpec, **constants) -> CompressorSpec:
    """A copy of ``spec`` that states ``constants`` (r, psi, cap_c, phi_c)
    in place of its own.  No public constructor builds such a spec; the
    tests use it to reach the paths that catch one."""
    lying = copy.copy(spec)
    for name, value in constants.items():
        object.__setattr__(lying, name, value)
    return lying
