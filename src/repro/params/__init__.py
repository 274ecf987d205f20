"""Parameter machinery: NTT primes, security budget, Set_k settings."""

from repro.params.presets import (
    WORD_LENGTHS,
    WordLengthSetting,
    build_sharp_setting,
)
from repro.params.primes import PrimeScarcityError
from repro.params.security import max_log_pq

__all__ = [
    "WORD_LENGTHS",
    "WordLengthSetting",
    "build_sharp_setting",
    "PrimeScarcityError",
    "max_log_pq",
]
