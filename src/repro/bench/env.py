"""Re-export of :func:`repro.provenance.environment_fingerprint`.

The fingerprint lives in :mod:`repro.provenance` so that the service
and checkpoints take it without importing the harness.  This path is
kept because ``benchmarks/e2e/run.py`` imports it from here.
"""

from ..provenance import environment_fingerprint

__all__ = ["environment_fingerprint"]
