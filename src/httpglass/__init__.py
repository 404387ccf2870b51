"""Inference of HTTP protocol semantics from encrypted TLS traffic metadata.

Subpackages cover packet capture parsing, TLS record metadata extraction,
feature engineering, random forests, iterative semantics classification,
labeled-corpus handling, evaluation harnesses, and key-material memory
scanning.
"""

__version__ = "0.1.0"


class HttpglassError(Exception):
    """Base of every error httpglass raises for bad input or bad models."""
