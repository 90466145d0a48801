"""Deterministic, splittable random-number streams.

A stream is identified by a nonnegative master seed plus a tuple of
nonnegative integer labels.  Identical (seed, labels) pairs always
reproduce the same draws, and streams with distinct labels are
statistically independent, so replicates of an experiment can run on any
number of workers and still produce byte-identical results.

A stream draws from ``Generator(Philox(SeedSequence(master_seed,
spawn_key=labels)))``, so its key is the SeedSequence's
``generate_state(2, np.uint64)`` (counter 0, empty buffer).
SeedSequence hashes its entropy words (the seed padded to four 32-bit
words, then the labels) one at a time into a pool of four words, and the
hash constant a word meets depends only on the word's position.  So the
pools of a block of streams are one (4, M) uint32 array (`KeyPool`):
numpy's SeedSequence fills each row's pool from its root labels once per
block, and a label every row shares, such as a filter step t, is
absorbed by the whole block at once.  Only that per-step absorb and the
output hash of `KeyPool.keys` are vectorized copies of SeedSequence's
code.  The engine then re-keys one generator per block row by row
(`KeyedRows`) instead of building a generator per stream, and hands the
model's samplers and the resampling schemes that numpy Generator
itself: `RngStream` only names the root streams.  numpy.random is
imported only when a pool or generator is first built.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# 0-d uint32 operands: numpy broadcasts them faster than Python ints
_L, _R, _SHIFT = (np.array(v, dtype=np.uint32) for v in (_MIX_L, _MIX_R, 16))
# the five hashmix constants of one absorbed word, relative to its first,
# and generate_state's constant pairs for the four output words
_A_POWERS = np.array([pow(_MULT_A, i, 1 << 32) for i in range(_POOL + 1)],
                     dtype=np.uint32)[:, None]
_B = [_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK for i in range(_POOL + 1)]
_B_XOR = np.array(_B[:-1], dtype=np.uint32)[:, None]
_B_MUL = np.array(_B[1:], dtype=np.uint32)[:, None]


def _words(value: int) -> list[int]:
    """A nonnegative integer as SeedSequence splits it: little-endian
    32-bit words, one word for 0."""
    out = [value & _MASK]
    value >>= 32
    while value:
        out.append(value & _MASK)
        value >>= 32
    return out


def _absorb(pool: np.ndarray, const: np.ndarray, word: np.ndarray):
    """SeedSequence's mixing of one more entropy word, for a block: every
    row mixes the same 0-d uint32 word into each of its four pool words."""
    cs = const * _A_POWERS  # the word's five hashmix constants, (5, M)
    h = (word ^ cs[:-1]) * cs[1:]
    h ^= h >> _SHIFT
    pool = pool * _L - h * _R
    pool ^= pool >> _SHIFT
    return pool, cs[-1]


class KeyPool(NamedTuple):
    """The SeedSequence pools of a block of M streams, part way through
    absorbing their entropy.

    ``pool[i, r]`` is pool word i of row r and ``const[r]`` the hash
    constant row r's next entropy word meets.  Rows whose entropy has
    different word counts keep different constants, so any streams can
    share a block.
    """

    pool: np.ndarray
    const: np.ndarray

    @classmethod
    def of(cls, streams: Sequence["RngStream"]) -> "KeyPool":
        """One row per stream, its seed and labels absorbed: row r's pool
        is ``SeedSequence(seed, spawn_key=labels).pool``.

        SeedSequence hashes each of its w entropy words four times, where
        w is the seed's word count (at least four) plus the labels', so
        the next word meets the constant ``_INIT_A * _MULT_A**(4 w)``.
        """
        from numpy.random import SeedSequence  # on first draw, not at import
        pools = [SeedSequence(s.master_seed, spawn_key=s.labels).pool for s in streams]
        w = np.array([max(_POOL, len(_words(s.master_seed)))
                      + sum(len(_words(l)) for l in s.labels) for s in streams],
                     dtype=np.uint32)
        return cls(np.array(pools).T, _INIT_A * _A_POWERS[_POOL] ** w)

    def absorb(self, label: int) -> "KeyPool":
        """Every row absorbs one more label, shared by all rows."""
        pool, const = self
        for word in _words(int(label)):
            pool, const = _absorb(pool, const, np.array(word, dtype=np.uint32))
        return KeyPool(pool, const)

    def keys(self) -> np.ndarray:
        """Every row's ``generate_state(2, np.uint64)``: shape (M, 2)."""
        out = (self.pool ^ _B_XOR) * _B_MUL
        out ^= out >> _SHIFT
        words = np.ascontiguousarray(out.T, dtype="<u4")
        return words.view("<u8").astype(np.uint64, copy=False)


def rekey(gen: "np.random.Generator", key) -> "np.random.Generator":
    """Reset a Philox generator to a fresh one under `key`, in place.

    It then draws what ``Generator(Philox(key=key))`` draws: every value it
    caches (the binomial set-up, for one) is recomputed whenever its
    inputs change, so nothing carries over from earlier keys.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # buffer empty
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _nonnegative(value, what: str) -> int:
    value = int(value)
    if value < 0:
        raise DomainError(f"{what} must be a nonnegative integer, got {value}")
    return value


class RngStream:
    """A deterministic random stream addressed by (master_seed, labels)."""

    __slots__ = ("master_seed", "labels", "_gen")

    def __init__(self, master_seed: int, labels: tuple[int, ...] = ()):
        self.master_seed = _nonnegative(master_seed, "master seed")
        self.labels = tuple(_nonnegative(l, "stream label") for l in labels)
        self._gen: np.random.Generator | None = None

    @property
    def gen(self) -> np.random.Generator:
        """The underlying numpy generator (created lazily)."""
        if self._gen is None:
            from numpy.random import Generator, Philox, SeedSequence  # on first draw
            self._gen = Generator(Philox(SeedSequence(self.master_seed,
                                                      spawn_key=self.labels)))
        return self._gen

    def derive(self, *labels: int) -> "RngStream":
        """Return an independent child stream with extra labels appended."""
        return RngStream(self.master_seed, self.labels + labels)

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, labels={self.labels})"


class KeyedRows:
    """The generators of a block's rows: the block's one generator,
    re-keyed to each row's key.

    ``keys[r]`` must be row r's key (`KeyPool.keys`).  Iterating yields
    ``gen`` once per row, in order, re-keyed to the row's key, so that it
    draws what ``Generator(Philox(key=keys[r]))`` draws; a row's draws
    must be made before the next row is taken.
    """

    __slots__ = ("gen", "keys")

    def __init__(self, gen: np.random.Generator, keys: np.ndarray):
        self.gen, self.keys = gen, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        for key in self.keys.tolist():  # ints set state fastest
            yield rekey(self.gen, key)
