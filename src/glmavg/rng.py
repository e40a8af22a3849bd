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
    raise TypeError(f"stream keys must be int or str, got {type(key).__name__}")


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


def derive_seed(seed: int, *keys) -> int:
    """Collapse ``(seed, *keys)`` into one derived integer seed.

    For call sites whose signature takes a plain seed (e.g. train/test
    splitting) but that need distinct, reproducible seeds per repeat.
    A negative seed or integer key raises ``DataError``, as in ``substream``.
    """
    material = ",".join(map(str, _checked_keys(seed, *keys)))
    digest = hashlib.sha256(material.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")
