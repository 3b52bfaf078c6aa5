"""Concurrent reads are safe: fields are immutable after construction and
the per-prime splitting cache, the subgroup-chain cache and the
automorphisms' action matrices are write-once: threads that fill an entry
at once store equal values.  The
lattice cache of the root lifts keeps the finest lattice built at each
prime, and a thread that replaces it with a coarser one costs only a
rebuild."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from heightlab.heights import GElement, weil_height
from heightlab.numberfield import (
    Subfield,
    _closure,
    _make_field_cached,
    minimal_polynomial,
    rational_subfield,
    roots_in_field,
)
from heightlab.orbits import orbit_mod_torsion
from heightlab.placespace import f_vector, l1_norm
from heightlab.polynomials import Poly, cyclotomic


def test_parallel_heights_and_vectors(field_biquad):
    f = field_biquad
    rng = random.Random(99)
    elements = []
    while len(elements) < 24:
        coords = [rng.randint(-3, 3) for _ in range(4)]
        if any(coords):
            elements.append(f.element(coords))

    def work(a):
        h = weil_height(a)
        vec = f_vector(GElement.of(a))
        rep = orbit_mod_torsion(a, rational_subfield(f))
        return h.value, l1_norm(vec), rep.delta

    serial = [work(a) for a in elements]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(work, elements))
    assert serial == parallel


@pytest.mark.parametrize("coeffs", [
    pytest.param((1, -3, 0, 5, 0, -3, 1), id="cbrt2_split"),
    pytest.param(tuple(int(c) for c in cyclotomic(21).coeffs), id="Phi21"),
])
def test_parallel_norms_and_inverses_on_a_cold_field(coeffs):
    # each run builds its own field past make_field's cache, so the threads
    # find the subgroup chains unbuilt and race to cache them
    def run(pool_map):
        f = _make_field_cached.__wrapped__(coeffs, 64)
        groups = sorted({_closure(f, [g]) for g in range(f.degree)}, key=sorted)
        subfields = [Subfield(f, [], group) for group in groups]
        subfields.append(rational_subfield(f))
        rng = random.Random(7)
        elements = [f.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(f.degree)]) for _ in range(12)]

        def work(a):
            return (a.inverse().coords, a.norm(),
                    [k.norm(a).coords for k in subfields])

        return list(pool_map(work, elements))

    serial = run(map)
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = run(pool.map)
    assert serial == parallel


class _WriteLog(dict):
    """A place cache that records every value written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def __setitem__(self, key, value):
        self.writes.append((key, value))
        super().__setitem__(key, value)


def test_parallel_place_vectors_on_a_cold_field():
    # threads race to split the same primes on a field built past
    # make_field's cache; every write of a prime's splitting, transported
    # anti-uniformizers included, must carry the same value, and the vectors
    # must match a serial run
    coeffs = (1, -3, 0, 5, 0, -3, 1)  # cbrt2_split

    def run(pool_map):
        f = _make_field_cached.__wrapped__(coeffs, 64)
        f._place_cache = _WriteLog()
        rng = random.Random(16)
        elements = [f.element([Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                               for _ in range(f.degree)]) for _ in range(24)]
        vectors = list(pool_map(lambda a: f_vector(GElement.of(a)).as_dict(), elements))
        return vectors, f._place_cache

    serial, serial_cache = run(map)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel, cache = run(pool.map)
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    assert len(cache) > 10 and set(cache) == set(serial_cache)
    for p, data in cache.writes:
        assert data == cache[p]
        assert [(pd.factor, pd.e, pd.f) for pd in data] == \
            [(pd.factor, pd.e, pd.f) for pd in serial_cache[p]]
        assert [pd.anti_uniformizer.coords for pd in data] == \
            [pd.anti_uniformizer.coords for pd in serial_cache[p]]


def test_parallel_roots_in_field_on_a_cold_field():
    # threads lift the roots of different polynomials in a field built past
    # make_field's cache: their lifts start at different precisions, some at
    # other split primes, so they race to replace the lattices cached there;
    # the roots must match a serial run
    coeffs = (1, -3, 0, 5, 0, -3, 1)  # cbrt2_split

    def run(pool_map):
        f = _make_field_cached.__wrapped__(coeffs, 64)
        rng = random.Random(27)
        polys = [minimal_polynomial(f.element([rng.randint(-40, 40) for _ in range(6)]))
                 for _ in range(4)]
        polys += [Poly([-2, 0, 0, 1]), Poly([3, 0, 1]) * Poly([-5, 0, 1]),
                  Poly([-7, 0, 1]), cyclotomic(3) * Poly([-11, 0, 0, 1])]
        return list(pool_map(lambda p: [r.coords for r in roots_in_field(p, f)], polys))

    serial = run(map)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = run(pool.map)
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    assert sum(map(bool, serial)) >= 5 and [] in serial


@pytest.mark.parametrize("coeffs", [
    pytest.param((1, -3, 0, 5, 0, -3, 1), id="cbrt2_split"),
    pytest.param(tuple(int(c) for c in cyclotomic(21).coeffs), id="Phi21"),
])
def test_parallel_first_applications_of_automorphisms(coeffs):
    # an automorphism builds its action matrix on its first application;
    # on a field built past make_field's cache, with every matrix unbuilt,
    # threads apply each automorphism for the first time at once, and must
    # get the images and matrices of a serial run
    def run(pool_map):
        f = _make_field_cached.__wrapped__(coeffs, 64)
        assert any(sigma._action is None for sigma in f.automorphisms)
        for sigma in f.automorphisms:
            sigma._action = None
        rng = random.Random(30)
        elements = [f.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(f.degree)]) for _ in range(6)]
        jobs = [(sigma, a) for sigma in f.automorphisms for a in elements]
        images = list(pool_map(lambda job: job[0](job[1]).coords, jobs))
        return images, [sigma._action for sigma in f.automorphisms]

    serial = run(map)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = run(pool.map)
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
