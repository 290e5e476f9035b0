"""Acceptance gate: ten checks covering every shipped guarantee.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line per
check. Every comparison is exact unless a tolerance is stated inline; the
timed checks assert their wall-clock budget as part of the pass condition.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import clustered_config, fractional_config
from ddlab import (
    Config,
    DegenerateHyperbolaError,
    EmptyResultError,
    Point,
    Regime,
    SweepSpec,
    build_family,
    check_chain,
    clamped_log,
    distinct_lower_bound,
    energy_report,
    gen_cylinder_extremal,
    gen_orthogonal_extremal,
    gen_random,
    incidences,
    intersection_count,
    oracle_incidences,
    oracle_quadruples,
    prune_general,
    prune_planar,
    regime,
    rows_to_csv,
    run_sweep,
    validate_constraints,
)
from ddlab.energy import energy


@contextmanager
def criterion(num: int, label: str):
    info: dict = {}
    start = time.monotonic()
    try:
        yield info
    except BaseException:
        print(f"\n[criterion {num:>2}/10] FAIL  {label}")
        raise
    extra = f" ({info['detail']})" if "detail" in info else ""
    print(f"\n[criterion {num:>2}/10] PASS  {label}{extra} [{time.monotonic() - start:.1f} s]")


@pytest.fixture(scope="module")
def corpus():
    """200 random c=1-valid configs, k in 2..4, n and m in 1..12."""
    configs = []
    for seed in range(200):
        rng = __import__("random").Random(seed * 7919 + 11)
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        k = rng.choice((2, 3, 4))
        configs.append(gen_random(n=n, m=m, k=k, seed=seed, coord_range=8 * (n + m)))
    return configs


@pytest.fixture(scope="module")
def adversarial():
    """Hand-built stress sources: mirror pairs, stacks, piles, duplicates."""
    mirror_rich = Config(
        k=2,
        c=4,
        p1_params=tuple(Fraction(v) for v in (-2, -1, 1, 2)),
        p2_points=tuple(Point.of(0, y) for y in (1, 2, 3, 4)),
    )
    vertical_stack = Config(
        k=2,
        c=5,
        p1_params=tuple(Fraction(v) for v in range(5)),
        p2_points=tuple(Point.of(3, y + 1) for y in range(5)),
    )
    duplicates = Config(
        k=3,
        c=3,
        p1_params=tuple(Fraction(v) for v in (0, 1, 4)),
        p2_points=(Point.of(2, 1, 1),) * 3,
    )
    return [
        mirror_rich,
        vertical_stack,
        duplicates,
        gen_cylinder_extremal(16, 16),
        clustered_config(5, n=4, m=9, k=3, c=3),
        clustered_config(6, n=5, m=12, k=2, c=2),
        fractional_config(7, n=4, m=6, k=2),
        gen_orthogonal_extremal(5, 9),
        gen_orthogonal_extremal(12, 3),
    ]


def test_01_energy_oracle(corpus):
    with criterion(1, "energy equals the brute-force quadruple oracle") as info:
        start = time.monotonic()
        for cfg in corpus:
            rep = energy_report(cfg)
            assert rep == energy(cfg)
            q, q0, q1 = oracle_quadruples(cfg)
            assert (rep.energy, rep.energy_same_point, rep.energy_cross) == (q, q0, q1)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        info["detail"] = f"{len(corpus)} configs, exact"


def test_02_incidence_bijection(corpus):
    with criterion(2, "cross-column energy equals grid-curve incidences") as info:
        start = time.monotonic()
        checked = 0
        for cfg in corpus:
            if cfg.m < 2:
                continue
            q1 = energy_report(cfg).energy_cross
            fam = build_family(cfg)
            fast = incidences(cfg.view, fam)
            assert fast.per_curve == oracle_incidences(cfg.p1_params, cfg)
            assert fast.total == q1
            checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        info["detail"] = f"{checked} configs, hash == oracle per curve, exact"


def test_03_same_point_energy_bound(corpus, adversarial):
    with criterion(3, "same-point energy never exceeds n*m") as info:
        for src in list(corpus) + adversarial:
            rep = energy_report(src)
            assert rep.energy_same_point <= rep.n * rep.m
        info["detail"] = f"{len(corpus) + len(adversarial)} sources, exact"


def test_04_cauchy_schwarz_chain(corpus, adversarial):
    with criterion(4, "count-energy chain holds in exact arithmetic") as info:
        half_cases = 0
        for src in list(corpus) + adversarial:
            rep = energy_report(src)
            n, m, x, q = rep.n, rep.m, rep.distinct_count, rep.energy
            assert x * q >= (n * m - x) ** 2
            chain = check_chain(rep)
            assert chain.cauchy_ok
            if 2 * x <= n * m:
                assert 4 * x * q >= m * m * n * n
                assert chain.lower_ok is True
                half_cases += 1
        info["detail"] = f"chain on {len(corpus) + len(adversarial)} sources, {half_cases} in the x <= nm/2 branch"


def test_05_family_shape_and_degeneracy(corpus):
    with criterion(5, "curve families are full-size, distinct, sign-balanced; rho clashes raise") as info:
        families = 0
        for cfg in corpus:
            if cfg.m < 2:
                continue
            fam = build_family(cfg)
            size = cfg.m * (cfg.m - 1)
            curves = list(fam.iter_curves())
            assert len(fam) == len(curves) == size
            assert len({(h.alpha, h.beta, h.gamma) for h in curves}) == size
            assert all(h.gamma != 0 for h in curves)
            assert sum(1 for h in curves if h.gamma > 0) == size // 2
            families += 1
        clashes = 0
        for seed in range(1000, 1030):
            rng = __import__("random").Random(seed)
            base = gen_random(
                n=rng.randint(1, 4),
                m=rng.randint(2, 6),
                k=rng.choice((2, 3, 4)),
                seed=seed,
                coord_range=80,
            )
            first = base.p2_points[0]
            last = base.p2_points[-1]
            clash_pt = Point((last.coords[0],) + first.coords[1:])
            bad = Config(
                k=base.k,
                c=base.c,
                p1_params=base.p1_params,
                p2_points=base.p2_points[:-1] + (clash_pt,),
            )
            assert not validate_constraints(bad, 1).ok
            with pytest.raises(DegenerateHyperbolaError) as exc:
                build_family(bad)
            assert exc.value.pair == (0, bad.m - 1)
            clashes += 1
        info["detail"] = f"{families} families, {clashes} forced clashes"


def test_06_pairwise_intersections_bounded():
    with criterion(6, "distinct curves cross in at most two points") as info:
        start = time.monotonic()
        pairs = 0
        for seed in range(2000, 2050):
            rng = __import__("random").Random(seed)
            cfg = gen_random(
                n=rng.randint(1, 4),
                m=rng.randint(2, 8),
                k=rng.choice((2, 3, 4)),
                seed=seed,
                coord_range=60,
            )
            curves = list(build_family(cfg).iter_curves())
            for a in range(len(curves)):
                for b in range(a + 1, len(curves)):
                    result = intersection_count(curves[a], curves[b])
                    assert result.count in (0, 1, 2)
                    assert len(result.points) <= result.count
                    pairs += 1
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        info["detail"] = f"50 families, {pairs} curve pairs, exact discriminants"


def test_07_pruning_guarantees():
    with criterion(7, "pruned configs are clash-free, large enough, and stable") as info:
        planar_runs = 0
        general_runs = 0
        for seed in range(3000, 3100):
            rng = __import__("random").Random(seed)
            c = seed % 3 + 1
            k = 2 if seed % 2 == 0 else rng.choice((3, 4))
            n = rng.randint(1, 6)
            m = rng.randint(1, 14)
            cfg = clustered_config(seed, n=n, m=m, k=k, c=c)
            assert validate_constraints(cfg).ok

            floor_general = m // (2 * c - 1)
            try:
                pruned = prune_general(cfg)
            except EmptyResultError:
                assert floor_general == 0
            else:
                out = pruned.to_config()
                assert validate_constraints(out, 1).ok
                assert out.m >= floor_general
                again = prune_general(out)
                assert again.kept_indices == tuple(range(out.m))
                general_runs += 1

            if k != 2:
                continue
            floor_planar = m // (2 * (2 * c - 1))
            try:
                pruned = prune_planar(cfg)
            except EmptyResultError:
                assert floor_planar == 0
            else:
                out = pruned.to_config()
                assert validate_constraints(out, 1).ok
                assert out.m >= floor_planar
                again = prune_planar(out)
                assert again.kept_indices == tuple(range(out.m))
                planar_runs += 1
        info["detail"] = f"100 configs, c in 1..3; {planar_runs} planar + {general_runs} general prunes"


def test_08_extremal_counts():
    with criterion(8, "extremal generators hit their exact distinct counts") as info:
        start = time.monotonic()
        for n in range(1, 65):
            for m in range(1, 65):
                assert energy_report(gen_cylinder_extremal(n, m)).distinct_count == max(n, m)
                assert energy_report(gen_orthogonal_extremal(n, m)).distinct_count == n + m - 1
        elapsed = time.monotonic() - start
        assert elapsed < 20.0
        info["detail"] = "all n, m <= 64, both generators, exact"


def test_09_bound_evaluators():
    with criterion(9, "regimes partition the grid; bound values match pinned fixtures") as info:
        for n in range(1, 51):
            t1 = math.sqrt(n)
            t2 = n ** 0.8 / clamped_log(n, "ln-clamped") ** 0.6
            t3 = float(n**3)
            for m in range(1, 51):
                r = regime(n, m)
                assert isinstance(r, Regime)
                if m <= t1:
                    expected = Regime.R1
                elif m <= t2:
                    expected = Regime.R2
                elif m <= t3:
                    expected = Regime.R3
                else:
                    expected = Regime.R4
                assert r == expected
                rep = distinct_lower_bound(n, m)
                assert rep.min_value <= min(n * n, m * m)

        def close(a: float, b: float) -> bool:
            return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)

        unit = distinct_lower_bound(1, 1)
        assert unit.regime == Regime.R1
        assert close(unit.min_value, 1.0)
        assert close(unit.piecewise_value, 1.0)

        r1 = distinct_lower_bound(100, 5)
        assert r1.regime == Regime.R1
        assert close(r1.min_value, 25.0)
        assert close(r1.term_two_thirds, 62.99605249474366)
        assert close(r1.term_log, 108.33669850143748)
        r1_log2 = distinct_lower_bound(100, 5, log_convention="log2-clamped")
        assert close(r1_log2.term_log, 101.35257133667804)

        r4 = distinct_lower_bound(100, 10**7)
        assert r4.regime == Regime.R4
        assert close(r4.min_value, 10000.0)
        assert close(r4.term_log, 13935.571265672264)
        info["detail"] = "50x50 grid + three pinned points, 1e-12 relative"


def test_10_performance_and_determinism():
    with criterion(10, "large stats run under budget; sweeps byte-identical") as info:
        start = time.monotonic()
        cfg = gen_random(n=2000, m=2000, k=2, seed=42, coord_range=16000)
        rep = energy_report(cfg)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        assert rep.distinct_count == 3836041  # pinned: cross-run determinism
        assert check_chain(rep).cauchy_ok

        spec = SweepSpec(n_list=(4, 9), m_list=(4, 9), seeds=(0, 1))
        first = rows_to_csv(run_sweep(spec))
        second = rows_to_csv(run_sweep(spec))
        assert first == second
        info["detail"] = f"4M-entry stats in {elapsed:.1f} s; 8-row sweep stable across runs"
