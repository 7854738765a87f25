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
the 32-bit words, one cache-sized block of counters at a time, in place
on a set of block buffers that each call allocates once.
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
# buffers stay in cache.  Median time of gaussian_entries for the 204 480
# draws of an N = 640 filtered sample (2-core shared Xeon, 48 KiB L1d and
# 2 MiB L2 per core, numpy 2.4), over three runs of 25 calls: 2^11:
# 20-22 ms, 2^12: 17-18 ms, 2^13: 14-17 ms, 2^14: 13.5-15.6 ms, 2^15:
# 14-16 ms, 2^16: 16.5-18 ms, 2^18: 24-30 ms, one block: 25-30 ms (with a
# fresh temporary per operation, 2^14 took 14-16 ms).
_BLOCK = 1 << 14


def _rounds(c, p, k0: int, k1: int):
    """Ten Philox rounds in place on the four uint64 word buffers c, with
    p two more of their size for the products."""
    c0, c1, c2, c3 = c
    p0, p1 = p
    for _ in range(10):
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        # c0 <- hi(p1) ^ c1 ^ k0 and c1 <- lo(p1); c2, c3 likewise from p0
        np.right_shift(p1, _SHIFT, out=c0)
        np.bitwise_xor(c0, c1, out=c0)
        np.bitwise_xor(c0, np.uint64(k0), out=c0)
        np.bitwise_and(p1, _LO, out=c1)
        np.right_shift(p0, _SHIFT, out=c2)
        np.bitwise_xor(c2, c3, out=c2)
        np.bitwise_xor(c2, np.uint64(k1), out=c2)
        np.bitwise_and(p0, _LO, out=c3)
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32


def _blockwise(c0, c1, c2, c3, seed: int, dtypes, fn):
    """fn(the four output words, a float scratch, the output slices) block
    by block over the broadcast counters; fn writes the outputs.  Returns
    one array per dtype, of the broadcast shape (a numpy scalar when every
    counter is one).  The rounds and fn run on one set of block buffers,
    allocated once per call."""
    words = [np.asarray(np.asarray(c, dtype=np.int64) & _MASK32)
             for c in (c0, c1, c2, c3)]
    shape = np.broadcast_shapes(*(w.shape for w in words))
    flat = [(w.reshape(()) if w.size == 1
             else np.broadcast_to(w, shape).reshape(-1)).view(np.uint64)
            for w in words]
    n = math.prod(shape)
    outs = [np.empty(n, dtype) for dtype in dtypes]
    size = min(n, _BLOCK)
    c = [np.empty(size, np.uint64) for _ in range(4)]
    p = [np.empty(size, np.uint64) for _ in range(2)]
    scratch = np.empty(size)
    k0, k1 = int(seed) & _MASK32, (int(seed) >> 32) & _MASK32
    for start in range(0, n, _BLOCK):
        s = slice(start, start + _BLOCK)
        m = min(n - start, _BLOCK)
        block = [b[:m] for b in c]
        for b, f in zip(block, flat):
            b[...] = f if f.ndim == 0 else f[s]
        _rounds(block, [b[:m] for b in p], k0, k1)
        fn(block, scratch[:m], [out[s] for out in outs])
    return [out.reshape(shape)[()] for out in outs]


def philox4x32_10(c0, c1, c2, c3, seed: int):
    """The raw generator: four uint32 output words per counter.

    Inputs broadcast against each other; negative indices are taken mod
    2^32.  The seed (64-bit) is split little-endian into the two key
    words.
    """
    def copy(w, _, outs):
        for out, word in zip(outs, w):
            out[...] = word

    return tuple(_blockwise(c0, c1, c2, c3, seed, [np.uint32] * 4, copy))


def _to_unit(hi: np.ndarray, lo: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A uniform on (0, 1) from two 32-bit words held in uint64, into out;
    hi is overwritten."""
    np.left_shift(hi, _SHIFT, out=hi)
    np.bitwise_or(hi, lo, out=hi)
    np.right_shift(hi, np.uint64(11), out=hi)
    np.add(hi, 0.5, out=out)             # exact: hi < 2^53 after the shift
    return np.multiply(out, 2.0 ** -53, out=out)


def uniform_pair(seed: int, trial, a, b, stream=0):
    """Two independent uniforms on (0,1) per counter (vectorized)."""
    def unit(w, _, outs):
        _to_unit(w[0], w[1], outs[0])
        _to_unit(w[2], w[3], outs[1])

    return tuple(_blockwise(trial, a, b, stream, seed, [np.float64] * 2, unit))


def _box_muller(w, u2, outs):
    """sqrt(-2 log u1) * cos(2 pi u2), into outs[0]."""
    u1 = _to_unit(w[0], w[1], outs[0])
    np.log(u1, out=u1)
    np.multiply(u1, -2.0, out=u1)
    np.sqrt(u1, out=u1)
    _to_unit(w[2], w[3], u2)
    np.multiply(u2, 2.0 * np.pi, out=u2)
    np.cos(u2, out=u2)
    np.multiply(u1, u2, out=u1)


def gaussian_entries(seed: int, trial, a, b, stream=0) -> np.ndarray:
    """Standard normal variates, one per (trial, a, b, stream) counter."""
    return _blockwise(trial, a, b, stream, seed, [np.float64], _box_muller)[0]


def _signs(w, _, outs):
    """+1/-1 from bit 0 of the first word, into outs[0]."""
    np.bitwise_and(w[0], np.uint64(1), out=w[0])
    np.multiply(w[0], 2.0, out=outs[0])
    np.subtract(outs[0], 1.0, out=outs[0])


def rademacher_entries(seed: int, trial, a, b, stream=0) -> np.ndarray:
    """Fair signs (+1/-1), one per counter: bit 0 of the first word."""
    return _blockwise(trial, a, b, stream, seed, [np.float64], _signs)[0]
