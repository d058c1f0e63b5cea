import math
import threading
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdmsim import numerics, ofdm
from ofdmsim.numerics import BLOCK, RngStream, box_muller, child_uniforms, q_function, seeded_stream, workspace

_MASK64 = (1 << 64) - 1


def _splitmix64_reference(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _child_id_reference(stream_id, *path):
    """Child stream id, hashed in full for every path element."""
    sid = stream_id
    for p in path:
        sid = _splitmix64_reference(sid ^ _splitmix64_reference((int(p) & _MASK64) ^ 0xD1B54A32D192ED03))
    return sid


@pytest.mark.parametrize(
    "path",
    [(1,), (2,), (3,), (101, 0), (102, 9), (101, 4095), (0,), (2**64 - 1,), (-1,), (-1, 2**64 - 1, 7), (np.int64(5),)],
)
def test_child_ids_match_the_uncached_hash(path):
    for stream_id in (0, 1, 12345, 2**64 - 1):
        for _ in range(2):  # the second round reads the cached path hashes
            child = RngStream(7, stream_id).child(*path)
            assert child.stream_id == _child_id_reference(stream_id, *path)
            assert child.seed == 7


def test_same_seed_and_stream_id_reproduces_sequence():
    a = seeded_stream(1, 0).uniforms(100)
    b = seeded_stream(1, 0).uniforms(100)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = seeded_stream(1, 0).uniforms(100)
    b = seeded_stream(1, 1).uniforms(100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = seeded_stream(1, 0).uniforms(100)
    b = seeded_stream(2, 0).uniforms(100)
    assert not np.array_equal(a, b)


def test_uniforms_in_unit_interval():
    u = seeded_stream(42, 7).uniforms(10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_gaussian_moments():
    # law of large numbers: 3*sigma/sqrt(n) ~ 0.003 for the mean at n=1e6
    n = 1_000_000
    re, im = seeded_stream(5, 0).gaussian_pairs(n)
    assert abs(re.mean()) < 0.01
    assert abs(im.mean()) < 0.01
    assert abs(re.var() - 1.0) < 0.01
    assert abs(im.var() - 1.0) < 0.01
    corr = np.mean(re * im) - re.mean() * im.mean()
    assert abs(corr) < 0.01
    # invariant bounds
    assert abs(re.mean()) <= 4 / math.sqrt(n)
    assert abs(re.var() - 1.0) <= 0.02


def test_gaussian_pair_matches_vector_draws():
    # pair draws consume exactly two uniforms, so scalar and vector paths align
    ref_re, ref_im = seeded_stream(9, 3).gaussian_pairs(3)
    rng = seeded_stream(9, 3)
    singles = [rng.gaussian_pairs(1) for _ in range(3)]
    assert np.allclose([s[0][0] for s in singles], ref_re)
    assert np.allclose([s[1][0] for s in singles], ref_im)


def test_gaussian_pairs_keep_their_exact_values():
    # r = sqrt(-2 log1p(-u0)) times cos and sin of 2 pi u1 by table and angle addition: a reordering moves the last bits
    re, im = seeded_stream(9, 3).gaussian_pairs(3)
    assert [x.hex() for x in re.tolist()] == ["-0x1.1e7bca0a21fc3p-4", "-0x1.b7b58dd0329d9p+0", "0x1.4861c608428ccp+0"]
    assert [x.hex() for x in im.tolist()] == ["0x1.43c2e2634d214p+0", "-0x1.31b3b404e131cp-1", "-0x1.92e77d2d4c189p-3"]


class _TableSpy:
    """Stands in for a numerics trig table and keeps every index box_muller reads from it."""

    def __init__(self, table, seen):
        self.table, self.seen = table, seen

    def take(self, k):
        self.seen.append(k.copy())
        return self.table.take(k)


def test_box_muller_is_as_close_to_exact_as_libm(monkeypatch):
    # the table and the libm formula both stay within 1e-15 max(1, r) of r cos(2 pi u1), r sin(2 pi u1) at 120 bits,
    # on random pairs and on the edges of r and of the table's angle split
    edges_u1 = [0.0, 0.25, 0.5, np.nextafter(1 / 1024, 0), np.nextafter(1 / 1024, 1), 1023 / 1024 + 2.0**-54, 1 - 2.0**-53]
    edges = [(u0, u1) for u0 in (0.0, 1 - 2.0**-53) for u1 in edges_u1]
    u = np.concatenate([np.array(edges).ravel(), seeded_stream(17, 4).uniforms(2 * 2000)])
    seen = []
    monkeypatch.setattr(numerics, "_COS", _TableSpy(numerics._COS, seen))
    monkeypatch.setattr(numerics, "_SIN", _TableSpy(numerics._SIN, seen))
    table = box_muller(u.copy()).reshape(-1, 2)
    r, theta = np.sqrt(-2.0 * np.log1p(-u[0::2])), (2.0 * np.pi) * u[1::2]
    libm = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    assert np.all(np.isfinite(table)) and all(k.min() >= 0 and k.max() <= 1023 for k in seen)
    with mpmath.workprec(120):
        for (u0, u1), got_t, got_l in zip(u.reshape(-1, 2).tolist(), table.tolist(), libm.tolist()):
            r_exact = mpmath.sqrt(-2 * mpmath.log1p(-mpmath.mpf(u0)))
            tol = 1e-15 * max(1.0, float(r_exact))
            for exact, t, m in zip((mpmath.cospi(2 * mpmath.mpf(u1)), mpmath.sinpi(2 * mpmath.mpf(u1))), got_t, got_l):
                assert abs(t - r_exact * exact) <= tol and abs(m - r_exact * exact) <= tol, (u0, u1)


@pytest.mark.parametrize("pairs", [1, 3, BLOCK, BLOCK + 5, 2 * BLOCK])
def test_box_muller_in_place_matches_gaussian_pairs(pairs):
    # in blocks of BLOCK pairs, on any C-contiguous shape, bit for bit the pairs of one stream draw
    u = seeded_stream(2, pairs).uniforms(2 * pairs).reshape(pairs, 2)
    assert box_muller(u) is u
    re, im = seeded_stream(2, pairs).gaussian_pairs(pairs)
    assert np.array_equal(u.view(np.uint64), np.column_stack([re, im]).view(np.uint64))


def test_child_streams_deterministic_and_independent():
    rng = seeded_stream(11, 4)
    before = seeded_stream(11, 4).uniforms(50)
    c1 = rng.child(0).uniforms(50)
    c2 = rng.child(0).uniforms(50)
    c3 = rng.child(1).uniforms(50)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)
    # deriving children must not consume the parent's state
    assert np.array_equal(rng.uniforms(50), before)


def test_q_function_at_zero():
    assert q_function(0.0) == 0.5


def test_q_function_known_value():
    # high-precision complementary-error-function oracle: Q(1.41421356)
    assert abs(q_function(1.41421356) - 0.07864960) < 1e-8


def test_q_function_vs_mpmath():
    mpmath.mp.dps = 30
    for x in np.linspace(-8.0, 8.0, 33):
        exact = float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))
        assert abs(q_function(float(x)) - exact) < 1e-10


def test_q_function_reflection():
    for x in (0.0, 0.3, 1.0, 2.5, 4.0, 7.0):
        assert abs(q_function(x) + q_function(-x) - 1.0) < 1e-12


def test_q_function_strictly_decreasing():
    xs = np.linspace(-6.0, 6.0, 200)
    qs = [q_function(float(x)) for x in xs]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_stream_is_philox_keyed_by_stream_id_and_seed():
    for seed, sid in ((1, 0), (0, 2**64 - 1), (2**64 - 1, 12345), (987654321, 2**63 + 5)):
        ref = np.random.Generator(np.random.Philox(counter=0, key=(sid << 64) | seed))
        assert np.array_equal(seeded_stream(seed, sid).uniforms(1000), ref.random(1000))


def test_workspace_is_kept_per_owner_and_shape():
    a = workspace("test-owner", (3, 8))
    assert workspace("test-owner", (3, 8)) is a
    assert a.dtype == np.complex128 and a.flags.c_contiguous
    assert workspace("test-other-owner", (3, 8)) is not a


def test_workspace_of_a_new_shape_releases_the_old_one():
    big = weakref.ref(workspace("test-owner", (64, 1024)))
    small = workspace("test-owner", (2, 8))
    assert big() is None
    assert workspace("test-owner", (2, 8)) is small


def test_workspace_belongs_to_its_thread():
    mine = workspace("test-owner", (4,))
    seen = []
    thread = threading.Thread(target=lambda: seen.append(weakref.ref(workspace("test-owner", (4,)))))
    thread.start()
    thread.join()
    assert seen[0]() is None  # freed with its thread
    assert workspace("test-owner", (4,)) is mine


def _reference_draws(ref, method, n):
    """What a stream's own Philox generator gives for one draw call."""
    if method == "uniforms":
        return ref.random(n)
    if method == "skip":
        ref.random(n)
        return None
    if method == "bits":
        return (ref.random(n) < 0.5).astype(np.uint8)
    u = box_muller(ref.random(2 * n))  # the oracle's own uniforms at these positions
    return u[0::2], u[1::2]


def _assert_same_draws(got, want):
    if want is None:
        assert got is None
    elif isinstance(want, tuple):
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)


_KEYS = st.sampled_from([0, 1, 2**63 + 5, 2**64 - 1]) | st.integers(0, 2**64 - 1)
_SIZES = st.integers(-2, 9) | st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 3, 2 * BLOCK + 1])


@settings(max_examples=60, deadline=None)
@given(
    seed=_KEYS,
    stream_ids=st.lists(_KEYS, min_size=2, max_size=3, unique=True),
    calls=st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(["uniforms", "bits", "gaussian_pairs", "skip"]), _SIZES), max_size=12
    ),
)
# skips of 0, 1, 3 and BLOCK + 3 uniforms, each from a position that is not a multiple of 4, and negative ones
@example(seed=5, stream_ids=[9, 10], calls=[
    (0, "uniforms", 1), (0, "skip", 0), (0, "skip", 1), (0, "skip", 3), (0, "gaussian_pairs", 1),
    (1, "bits", 3), (1, "skip", BLOCK + 3), (1, "skip", -1), (0, "skip", -2), (1, "gaussian_pairs", 3),
])
def test_interleaved_draws_match_one_generator_per_stream(seed, stream_ids, calls):
    streams = [RngStream(seed, sid) for sid in stream_ids]
    refs = [np.random.Generator(np.random.Philox(counter=0, key=(sid << 64) | seed)) for sid in stream_ids]
    for k, method, n in calls:
        stream, ref = streams[k % len(streams)], refs[k % len(refs)]
        if n < 0:
            before = stream._pos
            with pytest.raises(ValueError):
                getattr(stream, method)(n)
            assert stream._pos == before
            continue
        _assert_same_draws(getattr(stream, method)(n), _reference_draws(ref, method, n))
    for stream, ref in zip(streams, refs):  # every stream ends where its own generator is
        _assert_same_draws(stream.uniforms(5), ref.random(5))


def test_stream_continued_on_another_thread_matches_the_one_shot_draw():
    one_shot = seeded_stream(31, 2**63 + 5)
    whole = (one_shot.uniforms(7), one_shot.bits(BLOCK + 5), one_shot.gaussian_pairs(6), one_shot.uniforms(3))
    stream = seeded_stream(31, 2**63 + 5)
    parts = [stream.uniforms(7), stream.bits(BLOCK + 5)]
    seeded_stream(32, 0).uniforms(9)  # leaves this thread's generator elsewhere
    thread = threading.Thread(target=lambda: parts.extend([stream.gaussian_pairs(6), stream.uniforms(3)]))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    for got, want in zip(parts, whole, strict=True):
        _assert_same_draws(got, want)


def _assert_rows_are_child_draws(keys, tag, indices, length):
    streams = [RngStream(seed, sid) for seed, sid in keys]
    out = np.full((len(streams) * len(indices), length), np.nan)
    elsewhere = seeded_stream(32, 0)
    elsewhere.skip(9)
    elsewhere.uniforms(1)  # leaves this thread's generator at another key and counter
    assert child_uniforms(streams, tag, indices, out) is out
    for r, row in enumerate(out):
        _assert_same_draws(row, streams[r // len(indices)].child(tag, indices[r % len(indices)]).uniforms(length))


_ROW_KEYS = [(0, 2**64 - 1), (2**64 - 1, 2**64 - 1), (2**64 - 1, 0)]


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.tuples(_KEYS, _KEYS), max_size=3),
    tag=st.sampled_from([ofdm._TAG_INDICES, ofdm._TAG_VALUES]),
    indices=st.lists(st.integers(0, 50) | st.integers(0, 2**64 - 1), max_size=4),
    length=st.sampled_from([0, 1, 3, 64, 4097]),
)
@example(keys=_ROW_KEYS, tag=ofdm._TAG_VALUES, indices=[7, 2**64 - 1], length=3)
@example(keys=_ROW_KEYS, tag=ofdm._TAG_INDICES, indices=[], length=64)  # zero rows
@example(keys=[], tag=ofdm._TAG_INDICES, indices=[0, 1], length=4097)
def test_child_uniforms_fill_each_row_as_its_child_stream(keys, tag, indices, length):
    _assert_rows_are_child_draws(keys, tag, indices, length)


def _on_a_new_thread(fn):
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def test_child_uniforms_on_a_new_thread_leave_later_stream_draws_alone():
    # the rows set up a fresh thread's generator; a stream drawn next, from a position that is not
    # a multiple of 4, must still read exactly what it reads on a thread that made no rows
    def stream_at_five():
        stream = seeded_stream(9, 2**64 - 1)
        stream.skip(5)
        return stream

    def rows_then_a_draw():
        _assert_rows_are_child_draws(_ROW_KEYS, ofdm._TAG_INDICES, range(2**64 - 2, 2**64), 65)
        return stream_at_five().uniforms(7)

    _assert_same_draws(_on_a_new_thread(rows_then_a_draw), _on_a_new_thread(lambda: stream_at_five().uniforms(7)))


def test_uniforms_into_out_match_a_fresh_draw():
    stream, ref = seeded_stream(4, 2**64 - 1), seeded_stream(4, 2**64 - 1)
    stream.skip(3)
    ref.skip(3)
    out = np.full(7, np.nan)
    assert stream.uniforms(7, out=out) is out
    _assert_same_draws(out, ref.uniforms(7))
    _assert_same_draws(stream.uniforms(2), ref.uniforms(2))  # both moved on by the same 7
