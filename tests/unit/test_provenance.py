"""The environment fingerprint (repro.provenance.environment_fingerprint).

Artifacts and checkpoint headers carry it; its ``kernel_tier`` field is
one word for every compiled tile, so a comparison or a resume across a
tile falling back to numpy is visible.
"""

import pytest

from repro.forces import compiled
from repro.provenance import environment_fingerprint


class TestFingerprint:
    @pytest.mark.parametrize("fallen", range(len(compiled.TIERS)))
    def test_kernel_tier_speaks_for_every_tile(self, monkeypatch, fallen):
        """One field for every tile: ``"c"`` only if all of them compiled,
        so a resume or a comparison across any one falling back is a
        recorded discontinuity."""
        assert set(compiled.TIERS) == set(compiled.SOURCES)
        for name in compiled.TIERS:
            monkeypatch.setitem(compiled.TIERS, name, ("c", "built"))
        assert environment_fingerprint()["kernel_tier"] == "c"
        monkeypatch.setitem(compiled.TIERS, list(compiled.TIERS)[fallen], ("numpy", "fell back"))
        assert environment_fingerprint()["kernel_tier"] == "numpy"
