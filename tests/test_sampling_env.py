"""Sampling utilities and IACA version helpers."""


from repro.analysis.sampling import stratified_sample
from repro.iaca.analyzer import iaca_versions_for
from repro.uarch.configs import ALL_UARCHES


class TestStratification:
    def test_empty_input(self):
        assert stratified_sample([], 10) == []

    def test_single_category_uniform(self, db):
        forms = [f for f in db if f.category == "int_alu"][:60]
        sample = stratified_sample(forms, 20)
        assert 10 <= len(sample) <= 30
        assert len({f.uid for f in sample}) == len(sample)


class TestIacaVersionHelpers:
    def test_versions_match_configs(self):
        for uarch in ALL_UARCHES:
            assert iaca_versions_for(uarch) == uarch.iaca_versions

    def test_version_count_shape(self):
        # Haswell is the only generation covered by all four versions.
        counts = {
            u.name: len(u.iaca_versions) for u in ALL_UARCHES
        }
        assert counts["HSW"] == 4
        assert max(counts.values()) == 4
        assert counts["KBL"] == counts["CFL"] == 0
