"""The ``REPRO_FULL`` switch between stratified samples and the full
catalog in the paper-reproduction benchmarks."""

from conftest import full_run_requested


class TestFullRunSwitch:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_run_requested()

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "0")
        assert not full_run_requested()

    def test_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_run_requested()
