"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a stream derived
from ``(seed, *keys)`` rather than from one shared generator.  Streams
are built on numpy's Philox counter-based bit generator, keyed through
``SeedSequence``, so

* results are bit-identical across runs, platforms, and worker counts
  (a replication's stream never depends on scheduling), and
* distinct purposes ("design", "noise", "split", replication index...)
  get statistically independent streams.

String keys are hashed with SHA-256 (stable across processes; ``hash()``
is salted per interpreter and must not be used here).

A loop that draws one stream per replication, a study stack or a
``band`` row, does not build a ``SeedSequence`` and a ``Philox`` per
replication: ``_stack_streams`` re-keys one generator with the key
``SeedSequence`` would derive.  A Philox stream is fully set by its key
and counter (Salmon et al. 2011, "Parallel random numbers: as easy as
1, 2, 3"), so every draw is ``substream``'s to the bit; ``substream``
stays numpy's ``SeedSequence`` and is the reference the tests compare
against.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DataError


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key)
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    raise DataError(f"stream keys must be int or str, got {type(key).__name__}")


def _checked_keys(seed, *keys) -> tuple[int, ...]:
    """``(seed, *keys)`` as integers; a negative seed or integer key raises ``DataError``."""
    entropy = tuple(_key_to_int(k) for k in (seed, *keys))
    if min(entropy) < 0:
        raise DataError(f"seed and integer stream keys must be non-negative, got {min(entropy)}")
    return entropy


def substream(seed: int, *keys) -> np.random.Generator:
    """Return an independent generator for ``(seed, *keys)``.

    The same arguments always produce the same stream; any change to
    seed or any key produces an unrelated stream.  A negative seed or
    integer key raises ``DataError`` naming its value, since ``SeedSequence``
    takes only non-negative entropy.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_checked_keys(seed, *keys))))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): its pool
# of 4 uint32 words and the hash and mix multipliers.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: its uint32 words, least significant first (0 is one word)."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix`` of one word: the hashed word and the next hash constant."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _absorb(pool: list, hash_const: int, words) -> tuple[list, int]:
    """SeedSequence's entropy mixing, resumed: the pool and hash constant after ``words`` more entropy words.

    A pool of fewer than 4 words is still in the first loop, which
    hashes each word into its own slot; the fourth word's slot starts
    the all-to-all mix, and every later word is mixed into each slot.
    The input pool is not changed.
    """
    pool = list(pool)
    for word in words:
        if len(pool) < _POOL_SIZE:
            value, hash_const = _hashmix(word, hash_const)
            pool.append(value)
            if len(pool) == _POOL_SIZE:
                for src in range(_POOL_SIZE):
                    for dst in range(_POOL_SIZE):
                        if src != dst:
                            value, hash_const = _hashmix(pool[src], hash_const)
                            pool[dst] = _mix(pool[dst], value)
        else:
            for dst in range(_POOL_SIZE):
                value, hash_const = _hashmix(word, hash_const)
                pool[dst] = _mix(pool[dst], value)
    return pool, hash_const


def _philox_key(pool: list, hash_const: int) -> list[int]:
    """``generate_state(2, np.uint64)`` of the SeedSequence whose entropy left this pool: a Philox key."""
    if len(pool) < _POOL_SIZE:  # fewer entropy words than slots: the first loop hashes zeros
        pool, hash_const = _absorb(pool, hash_const, [0] * (_POOL_SIZE - len(pool)))
    state, hash_const = [], _INIT_B
    for word in pool:
        word ^= hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ word >> 16)
    return [state[0] | state[1] << 32, state[2] | state[3] << 32]


def _stack_streams(prefix: tuple[int, ...], reps):
    """Yield the stream ``substream(*prefix, rep)`` of each rep in turn, as one re-keyed generator.

    ``prefix`` is ``_checked_keys``'s output and ``reps`` non-negative
    ints.  A Philox stream is its key and its counter, so re-keying one
    ``Generator`` (counter 0, an empty buffer) gives each rep the bits of
    a fresh ``substream``, without its ``SeedSequence`` and ``Philox``.
    The keys are SeedSequence's: the prefix's words are mixed once, and
    only each rep's words (two from 2^32 up) are mixed per rep, from the
    first loop when the prefix has fewer than 4 words.  The generator
    belongs to this call: draw from it before taking the next.
    """
    base = _absorb([], _INIT_A, [word for key in prefix for word in _words(key)])
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    for rep in reps:
        if rep < 0:
            raise DataError(f"seed and integer stream keys must be non-negative, got {rep}")
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": _philox_key(*_absorb(*base, _words(rep)))},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator


def derive_seed(seed: int, *keys) -> int:
    """Collapse ``(seed, *keys)`` into one derived integer seed.

    For call sites whose signature takes a plain seed (e.g. train/test
    splitting) but that need distinct, reproducible seeds per repeat.
    A negative seed or integer key raises ``DataError``, as in ``substream``.
    """
    material = ",".join(map(str, _checked_keys(seed, *keys)))
    digest = hashlib.sha256(material.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")
