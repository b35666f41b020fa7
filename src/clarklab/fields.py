"""Validating readers for the fields of every JSON input document: a
malformed field raises ScenarioError whose message starts with its path,
e.g. ``checks[0].models[1].sites[0]`` or ``--theta.c``."""

from __future__ import annotations

import math
import sys

from .errors import ScenarioError


def _count(val, where: str) -> int:
    """A count as an int >= 1; anything else, a bool (an int in Python)
    included, raises ScenarioError naming ``where``."""
    if isinstance(val, bool) or not isinstance(val, int) or val < 1:
        raise ScenarioError(f"{where}: must be a positive integer")
    return val


def _real(val, where: str, lo: float = -math.inf, hi: float = math.inf
          ) -> float:
    """A finite number strictly between lo and hi as a float; a bool (an
    int in Python), NaN, an infinity or anything else raises ScenarioError
    naming ``where``."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not (lo < val < hi and abs(val) <= sys.float_info.max):
        span = {(-math.inf, math.inf): "a finite number",
                (0, math.inf): "a positive finite number"}.get(
                    (lo, hi), f"a number in ({lo}, {hi})")
        raise ScenarioError(f"{where}: must be {span}")
    return float(val)


def _decimal(val, where: str) -> float:
    """A finite number written as a decimal string, as measure_to_json_dict
    writes it, or as a JSON number, read by ``_real``."""
    try:
        return _real(float(val) if isinstance(val, str) else val, where)
    except ValueError:
        raise ScenarioError(f"{where}: must be a finite number") from None


def _list(values, where: str, empty: bool = False) -> list:
    """``values`` as a list; anything else, or an empty list unless
    ``empty``, raises ScenarioError naming ``where``."""
    if not isinstance(values, list) or not (values or empty):
        raise ScenarioError(f"{where}: must be a "
                            f"{'' if empty else 'non-empty '}list")
    return values


def _reals(values, where: str, empty: bool = False) -> list[float]:
    """A list of numbers, each read by ``_real``."""
    return [_real(v, f"{where}[{k}]")
            for k, v in enumerate(_list(values, where, empty))]


def _pair(val, where: str, read=_real) -> tuple[float, float]:
    """A list of two numbers, each read by ``read``, as a tuple."""
    if not isinstance(val, list) or len(val) != 2:
        raise ScenarioError(f"{where}: must be a list of two numbers")
    return read(val[0], f"{where}[0]"), read(val[1], f"{where}[1]")


def _complexes(values, where: str, empty: bool = False) -> list[complex]:
    """A list of [re, im] pairs, each read by ``_pair``, as complex numbers."""
    return [complex(*_pair(v, f"{where}[{k}]"))
            for k, v in enumerate(_list(values, where, empty))]


def _kind(val, where: str) -> str:
    """The kind of a model or the space of a Borel set: "line" or "circle"."""
    if val not in ("line", "circle"):
        raise ScenarioError(f'{where}: must be "line" or "circle"')
    return val


def _field(obj, key: str, where: str):
    """The field ``key`` of the object at ``where``; a non-object or a
    missing field raises ScenarioError naming it."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: must be an object")
    if key not in obj:
        raise ScenarioError(f"{where}.{key}: required field")
    return obj[key]
