import math
import threading
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim.numerics import BLOCK, RngStream, q_function, seeded_stream, workspace

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
    if method == "bits":
        return (ref.random(n) < 0.5).astype(np.uint8)
    u = ref.random(2 * n)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * np.pi) * u[1::2]
    return r * np.cos(theta), r * np.sin(theta)


def _assert_same_draws(got, want):
    if isinstance(want, tuple):
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
        st.tuples(st.integers(0, 2), st.sampled_from(["uniforms", "bits", "gaussian_pairs"]), _SIZES), max_size=12
    ),
)
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
