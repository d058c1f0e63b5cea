import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim.errors import LengthNotDivisible, UnsupportedOrder
from ofdmsim.modem import (
    build_constellation,
    demap_symbols,
    map_bits,
    write_constellation_csv,
)
from ofdmsim.numerics import q_function, seeded_stream

S2, S6, S10 = math.sqrt(2), math.sqrt(6), math.sqrt(10)


def _demapped_labels(symbols, c):
    k = c.bits_per_symbol
    bits = demap_symbols(symbols, c).reshape(-1, k).astype(np.intp)
    return (bits << np.arange(k - 1, -1, -1)).sum(axis=1)


def _oracle(symbols, c):
    """Brute-force argmin |s - p|^2 over every point: (labels, unique), where
    unique is False wherever another point is within 1e-12 of the minimum
    distance; at such ties the label is the lowest of the equidistant ones."""
    diff = np.asarray(symbols, dtype=np.complex128)[:, np.newaxis] - c.points
    d = diff.real**2 + diff.imag**2
    near = d - d.min(axis=1, keepdims=True) < 1e-12
    return np.argmax(near, axis=1), near.sum(axis=1) == 1


def test_order4_point_set():
    c = build_constellation(4)
    expected = {(1 + 1j) / S2, (1 - 1j) / S2, (-1 + 1j) / S2, (-1 - 1j) / S2}
    assert {complex(np.round(p, 12)) for p in c.points} == {
        complex(np.round(p, 12)) for p in expected
    }


def test_order16_point_set():
    c = build_constellation(16)
    expected = {(a + 1j * b) / S10 for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)}
    assert {complex(np.round(p, 12)) for p in c.points} == {
        complex(np.round(p, 12)) for p in expected
    }


def test_order8_point_set():
    c = build_constellation(8)
    expected = {(a + 1j * b) / S6 for a in (-3, -1, 1, 3) for b in (-1, 1)}
    assert {complex(np.round(p, 12)) for p in c.points} == {
        complex(np.round(p, 12)) for p in expected
    }


@pytest.mark.parametrize("bits", [[0, 2], [2, 0, 0, 1], [0, 0, 1, 255]])
def test_bits_other_than_zero_or_one_are_refused(bits):
    with pytest.raises(ValueError):
        map_bits(np.array(bits, dtype=np.uint8), build_constellation(4))


@pytest.mark.parametrize("order", [4, 8, 16])
def test_unit_average_energy(order):
    c = build_constellation(order)
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("order", [4, 8, 16])
def test_labels_are_bijection(order):
    c = build_constellation(order)
    assert sorted(c.labels) == list(range(order))
    assert len({complex(p) for p in c.points}) == order


@pytest.mark.parametrize("order", [4, 8, 16])
def test_gray_adjacency(order):
    # oracle: enumerate nearest-neighbor pairs geometrically, then check
    # their labels differ in exactly one bit
    c = build_constellation(order)
    pts = c.points
    dist = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(dist, np.inf)
    d_min = dist.min()
    pairs = np.argwhere(dist < d_min * 1.000001)
    assert len(pairs)
    for i, j in pairs:
        assert bin(int(i) ^ int(j)).count("1") == 1


@pytest.mark.parametrize("order", [2, 3, 32, 64, 0])
def test_unsupported_order(order):
    with pytest.raises(UnsupportedOrder):
        build_constellation(order)


def test_qpsk_label_table():
    # fixed table: I bit then Q bit, bit 0 selects the positive amplitude
    c = build_constellation(4)
    table = {
        (0, 0): (1 + 1j) / S2,
        (0, 1): (1 - 1j) / S2,
        (1, 0): (-1 + 1j) / S2,
        (1, 1): (-1 - 1j) / S2,
    }
    for bits, point in table.items():
        got = map_bits(np.array(bits, dtype=np.uint8), c)
        assert abs(got[0] - point) < 1e-15


def test_order16_sample_labels():
    c = build_constellation(16)
    # per-axis reflected Gray on descending levels: 00->+3, 01->+1, 11->-1, 10->-3
    cases = {
        (0, 0, 0, 0): (3 + 3j) / S10,
        (0, 1, 0, 1): (1 + 1j) / S10,
        (1, 0, 1, 0): (-3 - 3j) / S10,
        (1, 1, 0, 0): (-1 + 3j) / S10,
    }
    for bits, point in cases.items():
        got = map_bits(np.array(bits, dtype=np.uint8), c)
        assert abs(got[0] - point) < 1e-15


def test_order8_sample_labels():
    c = build_constellation(8)
    cases = {
        (0, 0, 0): (3 + 1j) / S6,
        (1, 1, 1): (-1 - 1j) / S6,
        (0, 1, 0): (1 + 1j) / S6,
    }
    for bits, point in cases.items():
        got = map_bits(np.array(bits, dtype=np.uint8), c)
        assert abs(got[0] - point) < 1e-15


def test_empty_bit_block():
    c = build_constellation(4)
    assert map_bits(np.array([], dtype=np.uint8), c).size == 0
    assert demap_symbols(np.array([], dtype=complex), c).size == 0


def test_length_not_divisible():
    c = build_constellation(16)
    with pytest.raises(LengthNotDivisible):
        map_bits(np.array([0, 1, 0], dtype=np.uint8), c)


@pytest.mark.parametrize("order", [4, 8, 16])
def test_roundtrip_random_bits(order):
    c = build_constellation(order)
    rng = seeded_stream(order, 0)
    n = 100_000 - 100_000 % c.bits_per_symbol
    bits = rng.bits(n)
    assert np.array_equal(demap_symbols(map_bits(bits, c), c), bits)


@pytest.mark.parametrize("order", [4, 8, 16])
def test_mean_mapped_energy_near_unity(order):
    c = build_constellation(order)
    bits = seeded_stream(7, order).bits(120_000 - 120_000 % c.bits_per_symbol)
    energy = np.mean(np.abs(map_bits(bits, c)) ** 2)
    assert abs(energy - 1.0) < 0.01


@pytest.mark.parametrize("order", [4, 8, 16])
def test_exact_points_demap_to_own_labels(order):
    c = build_constellation(order)
    k = c.bits_per_symbol
    got = demap_symbols(c.points, c)
    labels = np.array([int("".join(map(str, got[i * k : (i + 1) * k])), 2) for i in range(order)])
    assert np.array_equal(labels, np.arange(order))


def test_demap_nearest_neighbor():
    c = build_constellation(4)
    got = demap_symbols(np.array([0.9 + 1.1j]), c)
    assert np.array_equal(got, [0, 0])  # label of (+1+1j)/sqrt(2)


def test_demap_tie_breaks_to_lowest_label():
    c = build_constellation(16)
    # brute-force oracle over all 16 points for the all-equidistant input
    d = np.abs(0j - c.points)
    candidates = np.flatnonzero(np.abs(d - d.min()) < 1e-12)
    assert candidates.size == 4  # the four inner points
    got = demap_symbols(np.array([0j]), c)
    label = int("".join(map(str, got)), 2)
    assert label == candidates.min() == 5


@pytest.mark.parametrize("order", [4, 8, 16])
def test_demap_matches_oracle_on_dense_grid(order):
    c = build_constellation(order)
    axis = np.linspace(-2.0, 2.0, 401)
    s = (axis[:, np.newaxis] + 1j * axis).ravel()
    labels, unique = _oracle(s, c)
    assert unique.mean() > 0.9
    assert np.array_equal(_demapped_labels(s, c)[unique], labels[unique])


@settings(deadline=None)
@given(
    order=st.sampled_from([4, 8, 16]),
    symbols=st.lists(
        st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6),
        min_size=1,
        max_size=64,
    ),
)
def test_demap_matches_oracle_property(order, symbols):
    c = build_constellation(order)
    labels, unique = _oracle(symbols, c)
    assert np.array_equal(_demapped_labels(symbols, c)[unique], labels[unique])


@pytest.mark.parametrize("order", [4, 8, 16])
def test_demap_ties_on_every_threshold_and_crossing(order):
    # inputs on every per-axis midpoint and at every level, in all
    # combinations: single-axis ties, 2-D crossings and exact points
    c = build_constellation(order)
    coords = []
    for levels in (np.unique(c.points.real), np.unique(c.points.imag)):
        coords.append(np.concatenate([levels, (levels[:-1] + levels[1:]) / 2]))
    s = (coords[0][:, np.newaxis] + 1j * coords[1]).ravel()
    labels, unique = _oracle(s, c)
    assert not unique.all()
    assert np.array_equal(_demapped_labels(s, c), labels)


def test_single_carrier_qpsk_awgn_matches_q_function():
    # modem alone over AWGN: BER = Q(sqrt(2*Eb/N0)) for Gray QPSK
    c = build_constellation(4)
    rng = seeded_stream(2024, 1)
    eb_n0_db = 2.0
    gamma_b = 10 ** (eb_n0_db / 10)
    n_sym = 200_000
    bits = rng.bits(2 * n_sym)
    syms = map_bits(bits, c)
    sigma = math.sqrt(1.0 / (2.0 * 2.0 * gamma_b))  # Es=1, gamma_s = 2*gamma_b
    re, im = rng.gaussian_pairs(n_sym)
    rx = demap_symbols(syms + sigma * (re + 1j * im), c)
    ber = np.count_nonzero(rx != bits) / bits.size
    expected = q_function(math.sqrt(2 * gamma_b))
    stderr = math.sqrt(expected * (1 - expected) / bits.size)
    assert abs(ber - expected) <= 3 * stderr


def test_constellation_csv_dump():
    c = build_constellation(4)
    buf = io.StringIO()
    write_constellation_csv(c, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "label,bits,real,imag"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "00"
    assert abs(float(first[2]) - 1 / S2) < 1e-15
    assert abs(float(first[3]) - 1 / S2) < 1e-15
