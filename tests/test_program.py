"""Level programs: their algebra, their spawn structure, and the consumers
that derive from them."""

import numpy as np
import pytest

from repro.algorithms import levelsync
from repro.algorithms.opcount import op_count
from repro.algorithms.program import (
    FAST_PROGRAMS,
    PROGRAMS,
    STANDARD_TEMPS,
    STRASSEN,
    WINOGRAD,
    Block,
    level_blocks,
)


def _evaluate(program, a, b):
    """Run one level over 2x2 scalar matrices (each quadrant one number)."""
    env = {f"{m}{i + 1}{j + 1}": x[i, j] for m, x in (("a", a), ("b", b))
           for i in range(2) for j in range(2)}
    for dst, x, y, subtract in program.pre:
        env[dst] = env[x] - env[y] if subtract else env[x] + env[y]
    for k, (x, y) in enumerate(program.products):
        env[f"p{k + 1}"] = env[x] * env[y]
    c = np.zeros((2, 2))
    for dst, terms, signs in program.post:
        value = sum(s * env[t] for t, s in zip(terms, signs))
        if dst.startswith("c"):
            c[int(dst[1]) - 1, int(dst[2]) - 1] = value
        else:
            env[dst] = value
    return c


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_multiplies(name):
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b = rng.integers(-9, 10, (2, 2, 2)).astype(float)
        assert np.array_equal(_evaluate(PROGRAMS[name], a, b), a @ b)


def test_waves_follow_dependencies():
    assert [[s[0] for s in w] for w in WINOGRAD.pre_waves] == [
        ["s1", "s3", "t1", "t3"], ["s2", "t2"], ["s4", "t4"]]
    assert [[s[0] for s in w] for w in WINOGRAD.post_waves] == [
        ["c11", "u2"], ["u3", "u6"], ["c21", "c22", "c12"]]
    assert len(STRASSEN.pre_waves) == len(STRASSEN.post_waves) == 1
    assert STANDARD_TEMPS.pre_waves == ()


def test_temporaries_in_name_order():
    assert STRASSEN.pre_temporaries == tuple(
        [(f"s{k}", "a11") for k in range(1, 6)] + [(f"t{k}", "b11") for k in range(1, 6)])
    assert WINOGRAD.post_temporaries == ("u2", "u3", "u6")


@pytest.mark.parametrize("name,products,adds", [
    ("standard", 8, 0),
    ("standard_temps", 8, 4),
    ("strassen", 7, 18),
    ("winograd", 7, 15),
])
def test_level_counts(name, products, adds):
    # The paper's per-level counts (Section 2), derived from the blocks.
    blocks = level_blocks(name)
    assert sum(b.products for b in blocks) == products
    assert sum(sum(b.passes) for b in blocks) == adds
    oc = op_count(name, 32, 16)
    assert (oc.leaf_multiplies, oc.add_elements) == (products, adds * 16 * 16)


def test_accumulate_adds_one_pass_per_c_quadrant():
    for name in PROGRAMS:
        over = sum(sum(b.passes) for b in level_blocks(name))
        acc = sum(sum(b.passes) for b in level_blocks(name, accumulate=True))
        assert acc - over == 4, name
    assert level_blocks("standard", accumulate=True) == (Block(products=4),) * 2


def test_unknown_algorithm():
    with pytest.raises(KeyError, match="karatsuba"):
        level_blocks("karatsuba")


class TestLevelSyncGuard:
    def test_fast_programs_feed_each_operand_once(self):
        for program in FAST_PROGRAMS.values():
            for side in zip(*program.products):
                assert len(set(side)) == len(side)

    def test_standard_temps_is_refused(self):
        # a11 feeds p1 and p5: one product slot per operand cannot hold it.
        with pytest.raises(ValueError, match="reuses a product operand"):
            levelsync._Executor(STANDARD_TEMPS, None, None, None, 1, 8)

    def test_standard_temps_is_not_routed_there(self):
        assert not levelsync.supports("standard", "temps", "LZ", (8, 8))
