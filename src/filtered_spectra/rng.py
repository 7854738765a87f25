"""Counter-based random numbers for reproducible matrix sampling.

The generator is Philox4x32-10 (Salmon et al., the counter-based
generator from the Random123 family): a bijective keyed permutation of
a 128-bit counter, applied for 10 rounds.  There is no hidden state —
every variate is a pure function of (seed, counter) — so entries of a
random field can be drawn in any order, any slice, on any number of
workers, and always agree bit for bit.

Stream splitting is by counter word:

    word0 = trial index
    word1 = first matrix index  (the smaller one, for symmetric fields)
    word2 = second matrix index
    word3 = substream (0: filtered-model Y field, 1: colored Gaussian field)

and the 64-bit seed occupies the two key words.  Gaussian variates are
fixed to the Box-Muller cosine branch, one variate per counter, with
both uniforms built by gluing the four 32-bit output words pairwise
into 53-bit mantissas via u = ((x >> 11) + 0.5) * 2^-53 (never 0 or 1,
so the logarithm is safe).  The rounds run on uint64 arrays that hold
the 32-bit words, one cache-sized block of counters at a time.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "philox4x32_10",
    "uniform_pair",
    "gaussian_entries",
    "rademacher_entries",
]

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_LO = np.uint64(_MASK32)
_SHIFT = np.uint64(32)
# Counters per block: the ten rounds run on one block at a time, so their
# temporaries stay in cache.  Median time of gaussian_entries for the
# 204 480 draws of an N = 640 filtered sample (2-core shared Xeon, 48 KiB
# L1d and 2 MiB L2 per core, numpy 2.4), over three runs of 25 calls:
# 2^12: 33 ms, 2^13: 22-24 ms, 2^14: 21-27 ms, 2^15: 23-31 ms,
# 2^18: 38-39 ms, one block: 38-41 ms (the uint32 version: 40-42 ms).
_BLOCK = 1 << 14


def _rounds(c0, c1, c2, c3, k0: int, k1: int):
    """Ten Philox rounds on uint64 arrays that hold 32-bit words."""
    for _ in range(10):
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1, c2, c3 = ((p1 >> _SHIFT) ^ c1 ^ np.uint64(k0), p1 & _LO,
                          (p0 >> _SHIFT) ^ c3 ^ np.uint64(k1), p0 & _LO)
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def _blockwise(c0, c1, c2, c3, seed: int, dtypes, fn):
    """fn(the four output words) block by block over the broadcast
    counters: one array per dtype, of the broadcast shape (a numpy scalar
    when every counter is one)."""
    words = [np.asarray(np.asarray(c, dtype=np.int64) & _MASK32)
             for c in (c0, c1, c2, c3)]
    shape = np.broadcast_shapes(*(w.shape for w in words))
    flat = [(w.reshape(()) if w.size == 1
             else np.broadcast_to(w, shape).reshape(-1)).view(np.uint64)
            for w in words]
    n = math.prod(shape)
    outs = [np.empty(n, dtype) for dtype in dtypes]
    k0, k1 = int(seed) & _MASK32, (int(seed) >> 32) & _MASK32
    for start in range(0, n, _BLOCK):
        s = slice(start, start + _BLOCK)
        got = fn(_rounds(*(f if f.ndim == 0 else f[s] for f in flat), k0, k1))
        for out, g in zip(outs, got):
            out[s] = g
    return [out.reshape(shape)[()] for out in outs]


def philox4x32_10(c0, c1, c2, c3, seed: int):
    """The raw generator: four uint32 output words per counter.

    Inputs broadcast against each other; negative indices are taken mod
    2^32.  The seed (64-bit) is split little-endian into the two key
    words.
    """
    return tuple(_blockwise(c0, c1, c2, c3, seed, [np.uint32] * 4,
                            lambda words: words))


def _to_unit(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """A uniform on (0, 1) from two 32-bit words held in uint64."""
    x = (hi << _SHIFT) | lo
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def uniform_pair(seed: int, trial, a, b, stream=0):
    """Two independent uniforms on (0,1) per counter (vectorized)."""
    return tuple(_blockwise(
        trial, a, b, stream, seed, [np.float64] * 2,
        lambda w: (_to_unit(w[0], w[1]), _to_unit(w[2], w[3]))))


def _box_muller(w):
    u1, u2 = _to_unit(w[0], w[1]), _to_unit(w[2], w[3])
    return (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2),)


def gaussian_entries(seed: int, trial, a, b, stream=0) -> np.ndarray:
    """Standard normal variates, one per (trial, a, b, stream) counter."""
    return _blockwise(trial, a, b, stream, seed, [np.float64], _box_muller)[0]


def rademacher_entries(seed: int, trial, a, b, stream=0) -> np.ndarray:
    """Fair signs (+1/-1), one per counter: bit 0 of the first word."""
    return _blockwise(
        trial, a, b, stream, seed, [np.float64],
        lambda w: ((w[0] & np.uint64(1)).astype(np.float64) * 2.0 - 1.0,))[0]
