"""Self-tests of the benchmark's own model and checks.

Run with `python3 -m pytest bench/test_oracle.py`.  Each check is fed a
right value, which must pass, and a wrong one, which must fail.  Nothing
here imports qdepth.
"""

import random
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from oracle import EXAMPLE1, REPEAT3, CheckFailed, Formula  # noqa: E402

PINNED_COVER = [(1, 3), (1, 3), (2, 5), (2, 5)]  # u13 -> c0, c1; u25 -> c2, c3


def example1():
    return Formula(5, EXAMPLE1)


def test_example1_hand_derived_figures():
    f = example1()
    assert oracle.max_degree(f.linear_edges()) == 13
    g = oracle.GvsGraph(f, PINNED_COVER)
    assert (g.delta, len(g.used)) == (8, 2)
    assert f.native3() == (3, 4)


def test_repeated_triple_merges_one_edge():
    g = oracle.GvsGraph(Formula(5, REPEAT3), [(1, 2), (1, 2), (4, 5)])
    assert (g.delta, g.occurrence_delta) == (6, 7)
    assert g.check_reported(7) is True
    assert g.check_reported(6) is False
    for wrong in (5, 8):
        with pytest.raises(CheckFailed):
            g.check_reported(wrong)


def linear_report(f):
    edges = f.linear_edges()
    delta = oracle.max_degree(edges)
    return {"max_degree": delta, "num_interactions": len(edges),
            "num_qubits": len(f.used) + 3 * f.num_clauses,
            "depth_upper": delta + 2, "depth_lower": delta + 1}


def gvs_report(f, cover):
    g = oracle.GvsGraph(f, cover)
    names = {f"x{v}": 0 for v in f.used}
    names.update({"u" + "".join(map(str, p)): 0 for p in g.used})
    return {"max_degree": g.delta, "depth_upper": g.delta + 2,
            "substitutions": len(g.used), "num_qubits": g.num_qubits,
            "solver_status": "optimal", "degrees": names}


@pytest.mark.parametrize("key", ["max_degree", "num_interactions", "num_qubits",
                                 "depth_upper"])
def test_linear_check_rejects_off_by_one(key):
    f = example1()
    assert oracle.check_linear(linear_report(f), f) == 13
    bad = dict(linear_report(f), **{key: linear_report(f)[key] + 1})
    with pytest.raises(CheckFailed):
        oracle.check_linear(bad, f)


def test_native3_check_rejects_off_by_one():
    f = example1()
    good = {"max_degree": 3, "num_interactions": 4, "depth_lower": 4,
            "depth_upper": 5}
    assert oracle.check_native3(good, f) == 3
    for bad in (dict(good, max_degree=4, depth_lower=5),
                dict(good, num_interactions=3),
                dict(good, depth_upper=3)):
        with pytest.raises(CheckFailed):
            oracle.check_native3(bad, f)


def test_gvs_checks_reject_off_by_one_and_bad_status():
    f = example1()
    good = gvs_report(f, PINNED_COVER)
    assert oracle.check_ip(good, f, 0) == (8, {(1, 3), (2, 5)})
    for bad, code in ((dict(good, depth_upper=11), 0),
                      (dict(good, num_qubits=14), 0),
                      (dict(good, substitutions=3), 0),
                      (dict(good, solver_status="feasible_bound"), 2),
                      (good, 2)):
        with pytest.raises(CheckFailed):
            oracle.check_ip(bad, f, code)


def test_ip_check_rejects_delta_below_lower_bound():
    f = example1()
    low = f.lower_bound() - 1
    report = dict(gvs_report(f, PINNED_COVER), max_degree=low,
                  depth_upper=low + 2)
    with pytest.raises(CheckFailed):
        oracle.check_ip(report, f, 0)


def test_cover_leaving_a_clause_uncovered_is_rejected():
    f = example1()
    oracle.check_cover(f, PINNED_COVER)
    for bad in ([(1, 3), (1, 3), (2, 5), (1, 3)],   # (1, 3) not in clause 3
                [(1, 3), (1, 3), (2, 5), None],
                [(1, 3), (1, 3), (2, 5)]):
        with pytest.raises(CheckFailed):
            oracle.check_cover(f, bad)
    with pytest.raises(CheckFailed):
        oracle.cover_from_pairs(f, {(1, 3)})
    report = gvs_report(f, PINNED_COVER)
    del report["degrees"]["u25"]
    report.update(substitutions=1, num_qubits=9)
    with pytest.raises(CheckFailed):
        oracle.check_gvs(report, f)


def test_cover_from_pairs_is_none_when_ambiguous():
    f = example1()
    assert oracle.cover_from_pairs(f, {(1, 3), (2, 5)}) == PINNED_COVER
    assert oracle.cover_from_pairs(f, {(1, 3), (2, 5), (1, 2)}) is None


def test_substitution_names():
    names = ["x1", "u13", "u10_12", "du13_1", "du10_12_3", "d1_2", "z4"]
    assert oracle.substituted_pairs(names) == {(1, 3), (10, 12)}
    with pytest.raises(CheckFailed):
        oracle.substituted_pairs(["u123"])


def test_edge_coloring_check():
    edges = [(1, 2), (2, 3), (3, 1), (3, 4)]
    good = {frozenset(e): c for e, c in zip(edges, (0, 1, 2, 0))}
    assert oracle.check_edge_coloring(edges, good) == 3
    improper = dict(good)
    improper[frozenset((3, 4))] = 1  # meets (2, 3) at vertex 3
    missing = dict(good)
    del missing[frozenset((3, 4))]
    extra = dict(good)
    extra[frozenset((1, 4))] = 1
    for bad in (improper, missing, extra):
        with pytest.raises(CheckFailed):
            oracle.check_edge_coloring(edges, bad)


def test_edge_coloring_check_rejects_more_than_delta_plus_one_colors():
    edges = [(1, 2), (2, 3), (4, 5), (6, 7)]  # Δ = 2
    coloring = {frozenset(e): c for c, e in enumerate(edges)}
    with pytest.raises(CheckFailed):
        oracle.check_edge_coloring(edges, coloring)


def test_export_check():
    f = example1()
    lines = ["Minimize", " total: obj", "Subject To"]
    lines += [f" cover_c{c}: z_a + z_b + z_c = 1" for c in range(4)]
    lines += ["Bounds", " obj >= 0", "Binary", " y_1_2"]
    lines += [f" z_c{c}_{k}" for c in range(4) for k in range(3)]
    lines += ["General", " obj", "End"]
    oracle.check_export("\n".join(lines), f)
    for drop in (" cover_c3: z_a + z_b + z_c = 1", " z_c3_2"):
        with pytest.raises(CheckFailed):
            oracle.check_export("\n".join(l for l in lines if l != drop), f)


def test_inspect_check():
    f = example1()
    good = {"num_vars": 5, "num_used_vars": 5, "num_clauses": 4,
            "num_candidate_pairs": 9, "num_quadratic_pairs": 7,
            "num_coverings": 12}
    oracle.check_inspect(good, f)
    with pytest.raises(CheckFailed):
        oracle.check_inspect(dict(good, num_quadratic_pairs=8), f)


@pytest.mark.parametrize("seed", range(12))
def test_lower_bound_holds_for_every_cover(seed):
    """The bound stays at or below the smallest graph Δ of all 3^|C| covers,
    repeated triples included."""
    rng = random.Random(seed)
    n = rng.choice([4, 5, 6])
    f = Formula(n, oracle.random_3sat(n, rng.choice([4, 5, 6]), rng))
    best = min(oracle.GvsGraph(f, list(cover)).delta
               for cover in product(*(list(combinations(t, 2))
                                      for t in f.triples)))
    assert f.lower_bound() <= best


def test_random_3sat_is_seeded_and_allows_repeated_triples():
    a = oracle.random_3sat(20, 91, random.Random(7))
    assert a == oracle.random_3sat(20, 91, random.Random(7))
    assert all(len({abs(l) for l in c}) == 3 for c in a)
    triples = [frozenset(map(abs, c)) for c in
               oracle.random_3sat(5, 40, random.Random(0))]
    assert len(set(triples)) < len(triples)
