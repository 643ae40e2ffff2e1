"""Altered parameter records for tests: `P` with some fields changed, built
through the public keyword constructor."""

from hqc128.params import P, ParamSet


def altered(**changes: int) -> ParamSet:
    """A new ParamSet holding P's nine values, except those in `changes`."""
    return ParamSet(**{**{f: getattr(P, f) for f in ParamSet.__slots__}, **changes})
