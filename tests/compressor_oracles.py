"""Compressor oracles for the tests: the first recorded violation of a
``compressors.VerifyReport``, shown when a certification test fails."""

from cgtsim.compressors import VerifyReport


def worst_case(report: VerifyReport):
    return report.violations[0] if report.violations else None
