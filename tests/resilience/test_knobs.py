"""Central env-knob validation: one warning, documented default."""

import warnings

import pytest

from repro.perf.engine import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    default_backoff,
    default_retries,
    default_timeout,
    default_workers,
)
from repro.resilience.knobs import env_float, env_int


class TestEnvInt:
    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "17")
        assert env_int("REPRO_TEST_KNOB", 5) == 17

    def test_unset_and_empty_use_default_silently(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 5) == 5
            monkeypatch.setenv("REPRO_TEST_KNOB", "")
            assert env_int("REPRO_TEST_KNOB", 5) == 5

    def test_junk_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_KNOB"):
            assert env_int("REPRO_TEST_KNOB", 5) == 5

    def test_below_minimum_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "-3")
        with pytest.warns(RuntimeWarning, match="must be >= 0"):
            assert env_int("REPRO_TEST_KNOB", 5, minimum=0) == 5

    def test_warns_once_per_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "junk")
        with pytest.warns(RuntimeWarning):
            env_int("REPRO_TEST_KNOB", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 5) == 5  # silent now


class TestEnvFloat:
    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0.25")
        assert env_float("REPRO_TEST_KNOB", 1.0) == 0.25

    def test_junk_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "fast")
        with pytest.warns(RuntimeWarning, match="not a number"):
            assert env_float("REPRO_TEST_KNOB", 1.0) == 1.0


class TestDocumentedKnobs:
    def test_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert default_workers() == 4
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert default_workers() == 1

    def test_retries(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_RETRIES", raising=False)
        assert default_retries() == DEFAULT_RETRIES
        monkeypatch.setenv("REPRO_JOB_RETRIES", "7")
        assert default_retries() == 7

    def test_timeout_zero_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        assert default_timeout() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0")
        assert default_timeout() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2.5")
        assert default_timeout() == 2.5

    def test_backoff(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRY_BACKOFF", raising=False)
        assert default_backoff() == DEFAULT_BACKOFF
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        assert default_backoff() == 0.0
