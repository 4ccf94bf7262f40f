"""Analysis-layer tests: sampling, agreement computation, case studies."""

import pytest

from repro.analysis import compute_agreement, stratified_sample
from repro.analysis.casestudies import (
    aes_latency_study,
    shld_latency_study,
    zero_idiom_study,
)
from repro.core.runner import CharacterizationRunner
from repro.uarch.configs import get_uarch
from tests.conftest import backend_for


class TestSampling:
    def test_deterministic(self, db):
        forms = list(db)
        a = stratified_sample(forms, 100)
        b = stratified_sample(forms, 100)
        assert [f.uid for f in a] == [f.uid for f in b]

    def test_covers_categories(self, db):
        forms = list(db)
        sample = stratified_sample(forms, 150)
        all_categories = {f.category for f in forms}
        sampled_categories = {f.category for f in sample}
        assert sampled_categories == all_categories

    def test_target_respected(self, db):
        forms = list(db)
        sample = stratified_sample(forms, 100)
        assert len(sample) <= 2.2 * 100

    def test_full_when_target_large(self, db):
        forms = list(db)[:50]
        assert len(stratified_sample(forms, 500)) == 50


@pytest.mark.slow
class TestAgreement:
    @pytest.fixture(scope="class")
    def skl_row(self, db):
        backend = backend_for("SKL")
        runner = CharacterizationRunner(backend, db)
        supported = runner.supported_forms()
        sample = stratified_sample(supported, 60)
        return compute_agreement(
            get_uarch("SKL"), db, sample, backend,
            n_variants=len(supported),
        )

    def test_percentages_in_table1_band(self, skl_row):
        """Table 1 reports 91.36-93.25% µop and 91.04-98.24% port
        agreement; the sampled reproduction must land in a compatible
        range."""
        assert 85.0 <= skl_row.uops_percentage <= 99.0
        assert 85.0 <= skl_row.ports_percentage <= 100.0

    def test_most_variants_agree(self, skl_row):
        assert skl_row.uops_same_filtered > 0.8 * skl_row.filtered_total

    def test_format_row(self, skl_row):
        line = skl_row.format()
        assert "SKL" in line and "%" in line

    def test_no_iaca_generations_skipped(self, db):
        row = compute_agreement(
            get_uarch("KBL"), db, [], backend_for("KBL"), n_variants=0
        )
        assert row.iaca_versions == ()
        assert "-" in row.format()


class TestCaseStudies:
    def test_shld(self, db):
        result = shld_latency_study(db)
        assert result.passed, result.render()

    def test_aes(self, db):
        result = aes_latency_study(db)
        assert result.passed, result.render()

    def test_zero_idioms(self, db):
        result = zero_idiom_study("SKL", db)
        assert result.passed, result.render()
