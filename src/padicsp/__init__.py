"""Exact p-adic symplectic workbench."""

__version__ = "0.1.0"

from .padic import (
    Cyclo,
    Mono,
    PAdic,
    PadicError,
    PrimeCtx,
    hilbert_symbol,
    mu_psi,
    psi,
    weil_index,
)

__all__ = [
    "Cyclo",
    "Mono",
    "PAdic",
    "PadicError",
    "PrimeCtx",
    "hilbert_symbol",
    "mu_psi",
    "psi",
    "weil_index",
    "__version__",
]
