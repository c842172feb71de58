"""Resource limits, overridable through the CYCLODIFF_LIMITS environment variable.

CYCLODIFF_LIMITS holds a JSON object whose keys match Limits fields, e.g.

    CYCLODIFF_LIMITS='{"gb_max_spairs": 500000, "gb_timeout": 60}'

Unknown keys are rejected so typos do not silently keep defaults; so are
booleans, non-integers for integer limits, and values that are not
positive and finite.

One bound, cyclotomic_n_max, covers every ring Z[zeta_n] the package
works in, and so every reduced CycInt value, except that a count vector
of prime order p reduces by one fold and is not held to it.  The
difference-set routes and the identity suite reduce only in zeta_p; they
hold a composite order m to the bound only so that they skip the
instances they always skipped (cyclotomic.check_count_order).  With the
default, 2048, the charsum and jacobi routes decide every instance with
q <= 2049.  The
keys reduction_n_max and jacobi_direct_m_max of earlier versions no
longer exist and are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

from .errors import CyclodiffError


@dataclasses.dataclass(frozen=True)
class Limits:
    field_q_max: int = 2 ** 20          # largest allowed field size
    cyclotomic_n_max: int = 2048        # largest root order n of any Z[zeta_n]
    polysys_m_max: int = 40             # largest system order generated
    scan_q_max: int = 10 ** 6           # largest scan bound
    gauss_check_m_max: int = 64         # check_gauss skipped (with notice) above this m
    gb_max_spairs: int = 200_000
    gb_max_coeff_bits: int = 4096
    gb_timeout: float = 1800.0          # seconds, per basis computation


_cached: Limits | None = None


def current_limits() -> Limits:
    """Return the active limits (environment applied once, then cached)."""
    global _cached
    if _cached is None:
        _cached = _load()
    return _cached


def reload_limits() -> Limits:
    """Re-read CYCLODIFF_LIMITS; used by tests and the CLI."""
    global _cached
    _cached = _load()
    return _cached


def _load() -> Limits:
    raw = os.environ.get("CYCLODIFF_LIMITS", "")
    if not raw.strip():
        return Limits()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CyclodiffError(f"CYCLODIFF_LIMITS is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CyclodiffError("CYCLODIFF_LIMITS must be a JSON object")
    check_limit_values(data)
    return Limits(**data)


def check_limit_values(data: dict) -> None:
    """Reject unknown keys and values a limit cannot take.

    Integer limits take integers only; the float limit takes any finite
    number.  bool is refused everywhere, although Python counts it as an
    int, so that true does not become a budget of 1.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(Limits)}
    bad = sorted(set(data) - set(defaults))
    if bad:
        raise CyclodiffError(f"unknown limit keys: {', '.join(bad)}")
    for key, value in data.items():
        kinds = (int,) if type(defaults[key]) is int else (int, float)
        if type(value) not in kinds or not 0 < value < math.inf:
            kind = "integer" if kinds == (int,) else "finite number"
            raise CyclodiffError(f"limit {key} must be a positive {kind}")
