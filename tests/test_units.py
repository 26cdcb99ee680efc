"""Unit-helper tests."""

import pytest

from repro import units


def test_mbps():
    assert units.mbps(100) == 100e6


def test_gbps():
    assert units.gbps(1) == 1e9


def test_to_mbps_roundtrip():
    assert units.to_mbps(units.mbps(42)) == pytest.approx(42)


def test_ms():
    assert units.ms(20) == pytest.approx(0.020)


def test_to_ms_roundtrip():
    assert units.to_ms(units.ms(7.5)) == pytest.approx(7.5)


def test_kib():
    assert units.kib(64) == 65536


def test_mib():
    assert units.mib(1) == 1048576


def test_mb():
    assert units.mb(16) == 16_000_000


def test_gb():
    assert units.gb(10) == 10_000_000_000


def test_bytes_to_bits():
    assert units.bytes_to_bits(1500) == 12000


def test_default_mss_smaller_than_packet():
    assert units.DEFAULT_MSS < units.DEFAULT_PACKET_BYTES


def test_ack_bytes_positive():
    assert 0 < units.ACK_BYTES < units.DEFAULT_MSS
