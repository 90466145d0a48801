import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfconv import RngStream
from pfconv.errors import DomainError
from pfconv.rng import KeyedRows, KeyPool, rekey

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_same_seed_and_labels_reproduce():
    a = RngStream(42, (3, 7)).gen.standard_normal(100)
    b = RngStream(42, (3, 7)).gen.standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_labels_differ():
    a = RngStream(42, (0,)).gen.standard_normal(100)
    b = RngStream(42, (1,)).gen.standard_normal(100)
    assert not np.array_equal(a, b)
    # independence sanity check: near-zero sample correlation
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.3


def test_derive_appends_labels():
    root = RngStream(7)
    child = root.derive(2, 5)
    assert child.labels == (2, 5)
    assert child.master_seed == 7
    again = RngStream(7, (2, 5))
    assert np.array_equal(child.gen.random(16), again.gen.random(16))


def test_derive_does_not_disturb_parent():
    root = RngStream(9)
    before = RngStream(9).gen.random(8)
    root.derive(1).gen.random(8)
    assert np.array_equal(root.gen.random(8), before)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       labels=st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=4))
def test_determinism_property(seed, labels):
    a = RngStream(seed, tuple(labels)).gen.random(8)
    b = RngStream(seed, tuple(labels)).gen.random(8)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# keys: KeyPool against numpy's SeedSequence, the oracle


def _seedsequence_key(seed, labels):
    return np.random.SeedSequence(seed, spawn_key=labels).generate_state(2, np.uint64)


LABELS = [(), (0,), (0, 2**32), (5, 0, 2**40 + 1), (1, 2, 3, 4), (0, 2**32 + 7, 3, 0, 2**33)]


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 + 3, 2**130 + 5])
@pytest.mark.parametrize("labels", LABELS)
def test_keys_match_seedsequence(seed, labels):
    key = KeyPool.of([RngStream(seed, labels)]).keys()[0]
    assert key.dtype == np.uint64
    assert np.array_equal(key, _seedsequence_key(seed, labels))


def test_block_keys_absorb_shared_labels_incrementally():
    # rows with different seeds and entropy word counts share one block
    streams = [RngStream(seed, labels)
               for seed in (0, 7, 2**64 + 3) for labels in LABELS]
    step = KeyPool.of(streams).absorb(2**32 + 11)
    for k in (0, 1):
        keys = step.absorb(k).keys()
        assert keys.shape == (len(streams), 2)
        for r, s in enumerate(streams):
            want = _seedsequence_key(s.master_seed, s.labels + (2**32 + 11, k))
            assert np.array_equal(keys[r], want)


def test_stream_generator_matches_seedsequence_generator():
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence(3, spawn_key=(4, 0))))
    assert np.array_equal(RngStream(3, (4, 0)).gen.random(32), want.random(32))


def _philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def _draws(gen):
    p = np.array([0.1, 0.2, 0.3, 0.4])
    return [gen.gamma(1.5, 2.0, 64), gen.multinomial(50, p), gen.multinomial(7, p),
            gen.random(5), gen.standard_normal(9)]


def test_rekeyed_generator_reproduces_a_fresh_one():
    a, b = (KeyPool.of([RngStream(11, (r,))]).keys()[0] for r in (1, 2))
    gen = _philox(a)
    _draws(gen)  # leave a part-used buffer, a binomial set-up and counter behind
    gen.random(3)
    for key in (b, a):
        assert all(np.array_equal(x, y)
                   for x, y in zip(_draws(rekey(gen, key)), _draws(_philox(key))))


def test_keyed_rows_yield_derived_streams_on_the_block_generator():
    # every row is the block's one generator, re-keyed to the row's key: it
    # draws what Generator(Philox(key=keys[r])) and the derived stream
    # root.derive(4, branch) draw, for the propose (0) and resample (1) branch
    roots = [RngStream(5, (2, r)) for r in range(3)]
    step = KeyPool.of(roots).absorb(4)
    branches = [step.absorb(0).keys(), step.absorb(1).keys()]
    gen = _philox(branches[1][2])
    for branch, keys in enumerate(branches):
        rows = KeyedRows(gen, keys)
        assert len(rows) == len(roots)
        for r, (root, row) in enumerate(zip(roots, rows)):
            assert row is gen
            drawn = _draws(row)
            for want in (_draws(_philox(keys[r])), _draws(root.derive(4, branch).gen)):
                assert all(np.array_equal(x, y) for x, y in zip(drawn, want))


@pytest.mark.parametrize("seed, labels, bad", [(-1, (), -1), (3, (1, -2), -2)])
def test_negative_seed_or_label_rejected(seed, labels, bad):
    with pytest.raises(DomainError, match=f"got {bad}$"):
        RngStream(seed, labels)


def test_negative_derived_label_rejected():
    with pytest.raises(DomainError, match="stream label"):
        RngStream(3).derive(1, -4)


def test_import_leaves_numpy_random_unloaded():
    # a study's parent process never draws, so it should not pay for numpy.random
    code = ("import sys, pfconv, pfconv.engine, pfconv.convergence, pfconv.cli; "
            "print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
