"""The machine key of an environment fingerprint (repro.provenance.env_key).

The key is what the regression gate compares to decide whether two
artifacts come from one machine, and what ``benchmarks/calibration.json``
is keyed by, so its hex value is a file format: pinned below.
"""

import json
from pathlib import Path

import pytest

from repro.forces import compiled
from repro.provenance import env_key, environment_fingerprint

ENV_A = {
    "python": "3.12.0", "implementation": "CPython", "platform": "linux",
    "machine": "x86_64", "cpu_count": 8, "numpy": "1.26", "git_revision": "aaaa1111",
}
ENV_B = {**ENV_A, "machine": "arm64", "git_revision": "bbbb2222"}

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


class TestEnvKey:
    def test_stable_and_machine_sensitive(self):
        assert env_key(ENV_A) == env_key(dict(ENV_A))
        assert env_key(ENV_A) != env_key(ENV_B)

    def test_ignores_git_revision(self):
        assert env_key(ENV_A) == env_key({**ENV_A, "git_revision": "other"})

    def test_kernel_tier_starts_a_new_series(self):
        """Same box, same bits, other speed: medians from the compiled
        and the numpy tier of the pairwise kernel are not comparable."""
        compiled, fallback = ({**ENV_A, "kernel_tier": t} for t in ("c", "numpy"))
        assert len({env_key(ENV_A), env_key(compiled), env_key(fallback)}) == 3
        assert environment_fingerprint()["kernel_tier"] in ("c", "numpy")

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

    def test_the_key_is_a_file_format(self):
        """The hex value, as recorded before the function moved here; and
        the committed calibration still resolves for the machine of the
        committed baseline it was fitted from."""
        assert env_key(ENV_A) == "029494e05da2"
        baseline = json.loads((BENCHMARKS / "baseline.json").read_text())
        calibration = json.loads((BENCHMARKS / "calibration.json").read_text())
        assert env_key(baseline["environment"]) == "18d4b43079ab"
        assert "18d4b43079ab" in calibration["environments"]
