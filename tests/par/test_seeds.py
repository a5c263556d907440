"""The seed-derivation contract (docs/VALIDATION.md, "Parallel execution").

A trial's seed is ``repro.sim.rng.derive_seed(root, *grid_point,
trial)``.  Three properties make parallel sweeps trustworthy, and each
is pinned here: seeds are *injective* over distinct (grid point, trial)
pairs, *stable* across runs, platforms and ``PYTHONHASHSEED`` values,
and *independent* of call order and worker scheduling.  Golden values
guard against any accidental change to the hash construction — changing
them silently re-randomizes every published figure.
"""

import hashlib
import os
import random
import subprocess
import sys

from hypothesis import given, strategies as st

from repro.sim.rng import derive_rng, derive_seed

#: Pinned (root_seed, grid_point, trial) -> seed values.  These MUST
#: NOT change: every recorded figure table and conformance verdict was
#: produced from streams derived through this exact mapping.
GOLDEN = [
    ((0, ("flat", 0.05, 0.0), 0), 6741546571517483831),
    ((2002, ("tree", 0.05, 0.0, 0.2), 7), 17280391443641798245),
    ((42, ("interests", 0.1), 3), 7525971066502268185),
    ((1, ("x",), 0), 15922116855202296023),
]

label = st.one_of(
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
grid_point = st.one_of(
    st.tuples(label),
    st.tuples(label, label),
    st.tuples(label, label, label),
)
trial = st.integers(min_value=0, max_value=10 ** 6)
root = st.integers(min_value=0, max_value=2 ** 31)


class TestGolden:
    def test_pinned_values(self):
        for ((root_seed, point, t), expected) in GOLDEN:
            assert derive_seed(root_seed, *point, t) == expected

    def test_matches_historical_labelled_form(self):
        # The construction itself: SHA-256 over the repr of the label
        # tuple, first eight bytes big-endian.
        for ((root_seed, point, t), expected) in GOLDEN:
            digest = hashlib.sha256(
                repr((root_seed, *point, t)).encode("utf-8")
            ).digest()
            assert int.from_bytes(digest[:8], "big") == expected


class TestStability:
    def test_no_pythonhashseed_dependence(self):
        # Two interpreters with different (fixed) hash seeds must agree
        # with each other and with this process.
        script = (
            "from repro.sim.rng import derive_seed; "
            "print(derive_seed(0, 'flat', 0.05, 0.0, 0))"
        )
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        outputs = []
        for hash_seed in ("1", "4242"):
            env = dict(os.environ)
            env["PYTHONPATH"] = src
            env["PYTHONHASHSEED"] = hash_seed
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(int(result.stdout.strip()))
        assert outputs == [GOLDEN[0][1], GOLDEN[0][1]]

    @given(root, grid_point, trial)
    def test_repeated_calls_agree(self, root_seed, point, t):
        assert derive_seed(root_seed, *point, t) == derive_seed(
            root_seed, *point, t
        )

    @given(root, grid_point, trial)
    def test_seed_is_64_bit(self, root_seed, point, t):
        seed = derive_seed(root_seed, *point, t)
        assert 0 <= seed < 2 ** 64


class TestInjectivity:
    @given(root, grid_point, trial, grid_point, trial)
    def test_distinct_inputs_distinct_seeds(self, root_seed, p1, t1, p2, t2):
        if repr((*p1, t1)) == repr((*p2, t2)):
            assert derive_seed(root_seed, *p1, t1) == derive_seed(
                root_seed, *p2, t2
            )
        else:
            assert derive_seed(root_seed, *p1, t1) != derive_seed(
                root_seed, *p2, t2
            )

    @given(root, root, grid_point, trial)
    def test_distinct_roots_distinct_seeds(self, r1, r2, point, t):
        if r1 != r2:
            assert derive_seed(r1, *point, t) != derive_seed(r2, *point, t)


class TestSchedulingIndependence:
    @given(
        st.lists(
            st.tuples(grid_point, trial), min_size=2, max_size=8
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_of_derivation_is_irrelevant(self, keys, shuffler):
        # Derive in task order, then in a shuffled "completion order":
        # the mapping is identical — seeds carry no call-sequence state.
        in_order = {key: derive_seed(9, *key[0], key[1]) for key in keys}
        shuffled = list(keys)
        shuffler.shuffle(shuffled)
        out_of_order = {
            key: derive_seed(9, *key[0], key[1]) for key in shuffled
        }
        assert in_order == out_of_order

    def test_interleaved_streams_do_not_couple(self):
        lone = derive_rng(3, "a", 0).random()
        rng_a = derive_rng(3, "a", 0)
        rng_b = derive_rng(3, "b", 0)
        rng_b.random()  # advancing b must not perturb a
        assert rng_a.random() == lone


class TestNormalization:
    def test_tuple_list_scalar_equivalence(self):
        # The retired grid-point form took a tuple, a list or a bare
        # scalar and derived one seed for all three; spreading the point
        # into labels reproduces that seed, so no stream moved.
        assert derive_seed(1, 0.5, 2) == 9904427091299946893
        assert derive_seed(1, "a", 0.5, 2) == 10632971044955286778

    def test_derive_rng_streams_match_seed(self):
        seed = derive_seed(5, "p", 0.1, 4)
        assert derive_rng(5, "p", 0.1, 4).random() == random.Random(
            seed
        ).random()
