"""Corpus generator and check harness plumbing."""

import hashlib

import numpy as np
import pytest

from ma_lab import capacity as cap_mod
from ma_lab import energy, verify
from ma_lab.errors import InvalidInput
from profile_reference import full_profile

TAGS = ("bounded", "lelong_positive", "alpha_family", "divisor_bounded",
        "decreasing_chain")


def test_corpus_deterministic():
    a = verify.generate_corpus(0, 40)
    b = verify.generate_corpus(0, 40)
    assert a.digest() == b.digest()
    assert a.digest() != verify.generate_corpus(1, 40).digest()
    with pytest.raises(InvalidInput):
        verify.generate_corpus(0, 0)


def test_seed_profile_is_the_first_bounded_corpus_member():
    for seed in range(0, 1000, 37):
        phi = verify.seed_profile(seed)
        member = verify.generate_corpus(seed, 12).with_tag("bounded")[0].phi
        assert np.array_equal(phi.offset, member.offset), seed


def test_a_corpus_of_7_draws_the_first_divisor_bounded_member_of_a_larger_one():
    # ma-lab examples 1.4.2 reads this member from generate_corpus(5, 7)
    got, want = (verify.generate_corpus(5, size).with_tag("divisor_bounded")[0]
                 for size in (7, 24))
    assert got.tags == want.tags
    assert got.phi.offset.tobytes() == want.phi.offset.tobytes()


def test_tag_coverage():
    corpus = verify.generate_corpus(0, 90)
    for tag in TAGS:
        assert len(corpus.with_tag(tag)) >= 9, tag


def test_corpus_members_admissible(corpus36):
    for e in corpus36.profiles:
        full_profile(e.phi)  # raises if convexity or caps are violated
        assert e.phi.sup_value <= 1e-9


def test_chains_decrease(corpus36):
    chains = verify.corpus_chains(corpus36)
    assert chains
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert np.all(b.offset <= a.offset + 1e-12)


def test_run_checks_contract(corpus36, radial):
    with pytest.raises(InvalidInput):
        verify.run_checks(corpus36, radial, ["no-such-check"])
    assert verify.run_checks(corpus36, radial, []) == []
    reports = verify.run_checks(corpus36, radial,
                                ["mixed-mass-probability",
                                 "comparison-principle",
                                 "local-max-domination"])
    assert [r.check_id for r in reports] == sorted(r.check_id for r in reports)
    for r in reports:
        assert r.failures == 0, (r.check_id, r.failures, r.worst_margin)
        assert r.instances > 0
        assert r.citation  # opaque provenance label travels with the report


def test_check_ids_unique_citations_in_scope():
    for cid, (citation, _) in verify.CHECKS.items():
        assert citation in verify.IN_SCOPE, cid


def test_weak_continuity_helper(radial, corpus36):
    chain = verify.corpus_chains(corpus36)[0]
    err = verify.weak_continuity_error(radial, chain[-2], chain[-1])
    assert 0.0 <= err < 1e-3
    # against itself the pairing error vanishes
    assert verify.weak_continuity_error(radial, chain[-1], chain[-1]) == 0.0


def test_ordered_pairs(corpus36):
    pairs = verify.ordered_pairs(corpus36)[:6]
    assert len(pairs) == 6
    for phi, psi in pairs:
        assert np.all(phi.offset <= psi.offset + 1e-12)


def test_direct_check_call_reports_registered_citation(corpus36, radial):
    # citations live only in CHECKS; a check called directly still
    # returns a full report carrying its registered citation
    for fn, cid in ((verify.check_mixed_mass, "mixed-mass-probability"),
                    (verify.check_l1_criterion, "l1-criterion-constant")):
        r = fn(corpus36, radial)
        assert isinstance(r, verify.CheckReport)
        assert (r.check_id, r.citation) == (cid, verify.CHECKS[cid][0])
        assert r.instances > 0 and r.failures == 0
        assert np.isfinite(r.worst_margin)
    assert "fitted_constant" in r.details


def _spy_ladders(monkeypatch):
    """Record (offset digest, start) of every cutoff ladder built."""
    built = []

    class Spy(energy.Ladder):
        def __init__(self, model, phi, start):
            built.append((hashlib.sha1(phi.offset.tobytes()).hexdigest(), start))
            super().__init__(model, phi, start)

    monkeypatch.setattr(energy, "Ladder", Spy)
    return built


def test_a_run_builds_each_member_ladder_once(radial, monkeypatch):
    # the checks share one table of member verdicts: 40 start-1 member
    # ladders, not 100; the other 24 are the 20 start-1.5 ladders of
    # cutoff-sequence-free and 4 max tops of max-stable-in-ep, none built
    # twice.  The 35 radial solutions of uniqueness-up-to-constant and
    # solver-energy-a-priori build none: those checks read only psi.
    corpus = verify.generate_corpus(0, 60)
    # sup <= 0 on every member: the sandwich's shift to sup <= 0 is none,
    # so it reads the same ladder as the decay check
    assert all(energy._nonpositive(radial, e.phi)[1] == 0.0 for e in corpus.profiles)
    built = _spy_ladders(monkeypatch)
    verify.run_checks(corpus, radial)
    assert len(built) == len(set(built)) == 64
    members = {hashlib.sha1(e.phi.offset.tobytes()).hexdigest() for e in corpus.profiles}
    assert sum(h in members and start == 1.0 for h, start in built) == 40


# the checks that take every member's sublevel capacities with one call
BATCHED_CAPACITY_CHECKS = ("sublevel-capacity-decay", "sublevel-mass-vs-capacity",
                           "capacity-split-bound", "truncation-capacity-convergence",
                           "measure-capacity-domination")


def _spy_exit_slopes(monkeypatch):
    """Record the shape of the abscissae of every exit_slope call."""
    shapes = []
    exit_slope = cap_mod.exit_slope

    def spy(model, T):
        shapes.append(np.shape(T))
        return exit_slope(model, T)

    monkeypatch.setattr(cap_mod, "exit_slope", spy)
    return shapes


def test_a_batched_capacity_check_makes_one_exit_slope_search(corpus36, radial, monkeypatch):
    shapes = _spy_exit_slopes(monkeypatch)
    for cid in BATCHED_CAPACITY_CHECKS:
        del shapes[:]
        verify.run_checks(corpus36, radial, [cid])
        assert len(shapes) == 1 and len(shapes[0]) == 2, (cid, shapes)
        assert shapes[0][0] > 1, cid  # one row per member


def test_a_verify_run_makes_35_exit_slope_searches(radial, monkeypatch):
    # one per batched check and 30 for the sandwich's per-member quadrature
    # (140 when each batched check searched once per member)
    corpus = verify.generate_corpus(7, 60)
    shapes = _spy_exit_slopes(monkeypatch)
    verify.run_checks(corpus, radial)
    assert len(shapes) == len(verify._sandwiched(corpus)) + 5 == 35


def test_a_check_subset_builds_only_its_ladders(corpus36, radial, monkeypatch):
    built = _spy_ladders(monkeypatch)
    verify.run_checks(corpus36, radial, ["comparison-principle"])
    assert built == []
    verify.run_checks(corpus36, radial, ["divisor-bounded-integrability"])
    assert len(built) == len(corpus36.with_tag("divisor_bounded"))


def test_a_check_reports_the_same_in_a_run_alone_and_called_directly(corpus36, radial):
    full = verify.run_checks(corpus36, radial)
    assert [r.check_id for r in full] == sorted(verify.CHECKS)
    for r in full:
        assert verify.run_checks(corpus36, radial, [r.check_id]) == [r], r.check_id
        # a check that reads member ladders is called with its own table
        own = ([verify.member_limits(corpus36, radial, [r.check_id])]
               if r.check_id in verify.LADDER_READS else [])
        assert verify.CHECKS[r.check_id][1](corpus36, radial, *own) == r, r.check_id


def test_a_repeated_check_id_runs_once(corpus36, radial):
    reports = verify.run_checks(corpus36, radial,
                                ["max-stable", "comparison-principle", "max-stable"])
    assert [r.check_id for r in reports] == ["comparison-principle", "max-stable"]


def test_a_nan_margin_is_a_failure():
    assert verify._report("max-stable", [1.0, 0.5]).failures == 0
    r = verify._report("max-stable", [1.0, np.nan, -1.0])
    assert (r.instances, r.failures) == (3, 2)
    assert verify._report("max-stable", [np.nan]).failures == 1
