"""lcodr's Philox4x64-10 and inverse normal CDF kernels, bit for bit against
numpy.random's Philox generator and the standard library's NormalDist."""

import hashlib
import math
from statistics import NormalDist

import numpy as np
import pytest

from lcodr.data import _normals
from lcodr.model import PHILOX_CHUNK, _philox_key, normal_quantiles, philox_uniforms
from lcodr.uncertainty import TRUNCATION_Z, _normal_cdf, _truncated


def _blake2b_key(text: bytes) -> tuple:
    """The two little-endian 64-bit words of text's 16-byte BLAKE2b digest."""
    digest = hashlib.blake2b(text, digest_size=16).digest()
    return int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")


def _numpy_words(seed, key, start, stop):
    """Words [start, stop) of numpy's Philox4x64 stream (seed, *key)."""
    text = ",".join(format(word, "x") for word in (seed, *key)).encode()
    words = np.array(_blake2b_key(text), dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=words, counter=start // 4))
    return gen.random(start % 4 + stop - start)[start % 4:]


#: seeds of 1 to 5 32-bit words, several of them >= 2**63
SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1, 2**100 + 7, 2**130 + 3] + [
    int(s) for s in np.random.default_rng(29).integers(2**63, 2**64 - 1, 3, dtype=np.uint64,
                                                        endpoint=True)]
KEYS = [(), (0,), (38,), (2**32 + 5,), (3, 0), (7, 99), (2**40, 2**33 + 1)]
#: starts off a counter block, and ranges across the edges of kernel passes
RANGES = [(0, 1), (0, 9), (3, 4), (1, 18), (5, 5),
          (4 * PHILOX_CHUNK - 3, 4 * PHILOX_CHUNK + 6), (2, 8 * PHILOX_CHUNK + 3)]


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_rows_are_numpys_philox_words(seed):
    for start, stop in RANGES:
        rows = philox_uniforms(seed, KEYS, start, stop)
        assert rows.shape == (len(KEYS), stop - start)
        for key, row in zip(KEYS, rows):
            assert np.array_equal(row, _numpy_words(seed, key, start, stop)), (key, start, stop)


def test_streams_split_across_passes_are_numpys_philox_words():
    # 375 blocks a stream: five streams a pass, the last pass short
    keys = [(column, attempt) for column in range(39) for attempt in (0, 4)]
    rows = philox_uniforms(11, keys, 7, 1507)
    for key, row in zip(keys, rows):
        assert np.array_equal(row, _numpy_words(11, key, 7, 1507)), key


def test_no_streams_give_no_rows():
    assert philox_uniforms(0, [], 3, 40).shape == (0, 37)


#: (seed, key) and the canonical text whose digest keys the stream: the
#: integers in lower-case hexadecimal, joined by ","
KNOWN_TEXTS = [((0, ()), b"0"), ((5, (3, 0)), b"5,3,0"), ((0, (42, 0)), b"0,2a,0"),
               ((11, (7,)), b"b,7"),
               ((2**70, (2**33 + 1, 9)), b"400000000000000000,200000001,9"),
               ((2**130 + 3, ()), b"4" + b"0" * 31 + b"3"),
               # past the 4,300 digits that int-to-decimal conversion allows
               ((2**20000 + 1, (1,)), b"1" + b"0" * 4999 + b"1,1")]


@pytest.mark.parametrize("stream,text", KNOWN_TEXTS)
def test_the_key_is_the_blake2b_digest_of_the_hexadecimal_text(stream, text):
    assert _philox_key(*stream) == _blake2b_key(text)


def test_a_numpy_integer_keys_the_stream_of_its_value():
    assert _philox_key(np.uint64(5), (np.int64(3), 0)) == _blake2b_key(b"5,3,0")


def test_streams_of_different_keys_are_uncorrelated():
    # every stream of a Monte-Carlo attempt and the subsample stream, at one seed
    n = 8192
    keys = [(column, attempt) for column in range(44) for attempt in range(3)] + [()]
    assert len({_philox_key(0, key) for key in keys}) == len(keys)
    rows = philox_uniforms(0, keys, 0, n)
    assert (np.abs(rows.mean(axis=1) - 0.5) < 5 * np.sqrt(1 / 12 / n)).all()
    corr = np.corrcoef(rows)[np.triu_indices(len(keys), k=1)]
    assert (np.abs(corr) < 5 / np.sqrt(n)).all()


@pytest.mark.parametrize("seed,key", [(-1, ()), (0, (2, -1))])
def test_a_negative_seed_or_key_is_refused(seed, key):
    with pytest.raises(ValueError, match="non-negative"):
        philox_uniforms(seed, [key], 0, 4)


def _inv_cdf(levels) -> list:
    normal = NormalDist()
    return [normal.inv_cdf(p) for p in np.asarray(levels).tolist()]


def _around(edge: float, steps: int = 8) -> list:
    """The floats from `steps` below edge to `steps` above it."""
    levels = [edge]
    for _ in range(steps):
        levels = [math.nextafter(levels[0], 0.0), *levels, math.nextafter(levels[-1], 1.0)]
    return levels


def _branch(p: float) -> str:
    """The AS241 branch that NormalDist.inv_cdf takes for level p."""
    if abs(p - 0.5) <= 0.425:
        return "central"
    return "near" if math.sqrt(-math.log(p if p <= 0.5 else 1.0 - p)) <= 5.0 else "far"


def _first_level_past(lo: float, hi: float) -> float:
    """The smallest level in (lo, hi] that takes another branch than lo, by
    bisection over the bit patterns of the positive floats between them."""
    a, b = (np.float64(v).view(np.int64).item() for v in (lo, hi))
    while b - a > 1:
        m = (a + b) // 2
        if _branch(np.int64(m).view(np.float64).item()) == _branch(lo):
            a = m
        else:
            b = m
    return np.int64(b).view(np.float64).item()


@pytest.mark.parametrize("lo,hi,branches", [
    (0.07, 0.08, {"near", "central"}), (0.92, 0.93, {"central", "near"}),
    (1e-11, 2e-11, {"far", "near"}), (1.0 - 2e-11, 1.0 - 1e-11, {"near", "far"}),
], ids=["q=-0.425", "q=+0.425", "r=5,p<0.5", "r=5,p>0.5"])
def test_inverse_cdf_is_the_standard_librarys_on_each_side_of_every_branch_edge(lo, hi,
                                                                                 branches):
    levels = _around(_first_level_past(lo, hi))
    assert [_branch(p) for p in levels] == [_branch(lo)] * 8 + [_branch(hi)] * 9
    assert {_branch(lo), _branch(hi)} == branches
    assert normal_quantiles(np.array(levels)).tolist() == _inv_cdf(levels)


def test_every_word_has_a_finite_normal_the_standard_librarys():
    # the smallest word, 0.0, is taken at 2**-54; the largest is 1 - 2**-53
    extremes = np.array([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])
    normals = _normals(extremes)
    assert np.isfinite(normals).all()
    assert normals.tolist() == _inv_cdf([2.0 ** -54, *extremes[1:]])
    with pytest.raises(ValueError):   # a level of 0 has no finite quantile
        normal_quantiles(np.array([0.0]))


def test_normals_of_philox_words_are_the_standard_librarys():
    words = philox_uniforms(0, [(1, 0, 0)], 0, 100_000)[0]
    assert {_branch(p) for p in words.tolist()} == {"central", "near"}
    assert _normals(words).tolist() == _inv_cdf(words)


def test_cdf_and_inverse_cdf_are_the_standard_librarys_on_the_window():
    normal = NormalDist()
    edges = np.linspace(-TRUNCATION_Z, TRUNCATION_Z, 10_001).tolist()
    assert [_normal_cdf(z) for z in edges] == [normal.cdf(z) for z in edges]
    levels = np.linspace(_normal_cdf(-TRUNCATION_Z), _normal_cdf(TRUNCATION_Z), 1_000_001)
    assert (levels[0], levels[-1]) == (normal.cdf(-TRUNCATION_Z), normal.cdf(TRUNCATION_Z))
    want = np.fromiter(map(normal.inv_cdf, levels.tolist()), float, count=len(levels))
    assert np.array_equal(normal_quantiles(levels), want)


def test_truncated_normals_map_numpys_words_through_the_standard_library():
    normal = NormalDist()
    lower, upper = -TRUNCATION_Z, 0.4
    low = normal.cdf(lower)
    levels = low + _numpy_words(4, (12, 1), 3, 2003) * (normal.cdf(upper) - low)
    assert _truncated(philox_uniforms(4, [(12, 1)], 3, 2003)[0], lower, upper).tolist() == \
        [normal.inv_cdf(p) for p in levels.tolist()]
