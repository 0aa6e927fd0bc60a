import hashlib
import time

import pytest

from coverkit import (
    CffSpec,
    SearchBudget,
    UniversalSpec,
    construct_cff_derandomized,
    construct_universal_greedy,
    derandomized_size_bound,
    minimal_cff_size,
    minimal_universal_size,
    sperner_row_count,
    universal_greedy_size_bound,
    verify_cff,
    verify_universal,
)


class TestMinimalUniversal:
    @pytest.mark.parametrize("n,d,q,expected", [(2, 2, 2, 4), (3, 2, 2, 4), (4, 2, 2, 5)])
    def test_ground_truth(self, n, d, q, expected):
        outcome = minimal_universal_size(UniversalSpec(n, d, q))
        assert outcome.found
        assert outcome.size == expected
        assert outcome.certificate.num_rows == expected
        assert verify_universal(outcome.certificate, d).valid

    def test_kleitman_direction(self):
        for n, d in ((2, 2), (3, 2), (4, 2), (3, 3)):
            outcome = minimal_universal_size(UniversalSpec(n, d, 2))
            assert outcome.found and outcome.size >= 2**d

    def test_ternary_instance(self):
        outcome = minimal_universal_size(UniversalSpec(2, 1, 3))
        assert outcome.found and outcome.size == 3

    def test_infeasible_below_minimum(self):
        outcome = minimal_universal_size(UniversalSpec(4, 2, 2), SearchBudget(max_rows=4))
        assert outcome.status == "infeasible"
        assert outcome.size is None and outcome.certificate is None

    def test_node_budget_aborts_cleanly(self):
        outcome = minimal_universal_size(
            UniversalSpec(4, 2, 2), SearchBudget(max_rows=8, node_limit=3)
        )
        assert outcome.status == "budget_exceeded"

    def test_row_space_cap(self):
        outcome = minimal_universal_size(UniversalSpec(21, 2, 2))
        assert outcome.status == "budget_exceeded"

    def test_huge_n_is_refused_at_once(self):
        started = time.perf_counter()
        outcome = minimal_universal_size(UniversalSpec(10**9, 1, 3))
        assert time.perf_counter() - started < 1.0
        assert (outcome.status, outcome.nodes) == ("budget_exceeded", 0)


class TestMinimalCff:
    @pytest.mark.parametrize("n,r,s,expected", [(2, 1, 1, 2), (4, 1, 1, 4), (6, 1, 1, 4), (7, 1, 1, 5)])
    def test_ground_truth(self, n, r, s, expected):
        outcome = minimal_cff_size(CffSpec(n, r, s))
        assert outcome.found
        assert outcome.size == expected
        assert verify_cff(outcome.certificate, r, s).valid

    def test_matches_sperner_rule(self):
        for n in (2, 3, 4, 5, 6):
            outcome = minimal_cff_size(CffSpec(n, 1, 1))
            assert outcome.found and outcome.size == sperner_row_count(n)

    def test_asymmetric_instance(self):
        # (3, (1, 2)): only the three unit rows work, so the minimum is 3
        outcome = minimal_cff_size(CffSpec(3, 1, 2))
        assert outcome.found and outcome.size == 3

    def test_degenerate_edges_need_one_row(self):
        assert minimal_cff_size(CffSpec(4, 0, 2)).size == 1
        assert minimal_cff_size(CffSpec(4, 2, 0)).size == 1

    def test_infeasible_below_minimum(self):
        outcome = minimal_cff_size(CffSpec(7, 1, 1), SearchBudget(max_rows=4))
        assert outcome.status == "infeasible"

    def test_row_space_cap(self):
        outcome = minimal_cff_size(CffSpec(21, 1, 1))
        assert outcome.status == "budget_exceeded"

    def test_huge_n_is_refused_at_once(self):
        started = time.perf_counter()
        outcome = minimal_cff_size(CffSpec(10**9, 1, 1))
        assert time.perf_counter() - started < 1.0
        assert (outcome.status, outcome.nodes) == ("budget_exceeded", 0)


class TestSandwich:
    """Oracle minimum <= constructor output <= constructor bound."""

    @pytest.mark.parametrize("n,r,s", [(4, 1, 1), (5, 1, 2), (6, 2, 1), (4, 2, 2)])
    def test_cff(self, n, r, s):
        spec = CffSpec(n, r, s)
        outcome = minimal_cff_size(spec)
        assert outcome.found
        built, trace = construct_cff_derandomized(spec)
        assert outcome.size <= built.num_rows <= derandomized_size_bound(spec)

    @pytest.mark.parametrize("n,d,q", [(3, 2, 2), (4, 2, 2), (2, 2, 2), (3, 1, 3)])
    def test_universal(self, n, d, q):
        spec = UniversalSpec(n, d, q)
        outcome = minimal_universal_size(spec)
        assert outcome.found
        built, _ = construct_universal_greedy(spec)
        assert outcome.size <= built.num_rows <= universal_greedy_size_bound(spec)


def certificate_sha(m):
    return None if m is None else hashlib.sha256("\n".join(m.row_strings()).encode()).hexdigest()


# (status, size, nodes, sha256 of the certificate rows): the nodes pin the
# search path, not just the minimum.
SEARCHES = {
    UniversalSpec(4, 2, 2): ("found", 5, 56, "5ace6d852cdab38f6629510bbdae086998b322e0e5e76f53f1c73a030a08e10f"),
    UniversalSpec(5, 2, 2): ("found", 6, 3291, "84f8e5e12271d71d1ad6172a2bb7d628d9a5f2a8fbc1f7a6c60f065fae91b348"),
    UniversalSpec(2, 1, 3): ("found", 3, 12, "6809a683cdd8563f77719218f8b0f91f2f80edd5f7a7a5f5b6c11508da38db67"),
    UniversalSpec(6, 2, 2): ("found", 6, 41005, "be57e429aeef33c8e367f53dea8057b3ea67fa3b861c0383e1b090378686f30a"),
    CffSpec(7, 1, 1): ("found", 5, 17078, "b2c692404ec8ea3e28d99c1973b393779bb065be182fa4f19060cfae7be9da00"),
    CffSpec(7, 1, 2): ("found", 7, 15072, "a9b308a6a3996bfa101482b1e0ccbfd050cc918137be6dbec46b90537d51e94e"),
    CffSpec(3, 1, 2): ("found", 3, 11, "1d52ee03dff97a7a4281b36c7fd78f73540d3a57e897d8bcf3fb720b828d2625"),
    CffSpec(4, 0, 2): ("found", 1, 17, "9af15b336e6a9619928537df30b2e6a2376569fcf9d7e773eccede65606529a0"),
    CffSpec(4, 2, 0): ("found", 1, 17, "0ffe1abd1a08215353c233d6e009613e95eec4253832a761af28ff37ac5a150c"),
    CffSpec(10, 2, 0): ("found", 1, 1025, "d2d02ea74de2c9fab1d802db969c18d409a8663a9697977bb1c98ccdd9de4372"),
    # Many cover masks and a final row drawn from one constraint's covers.
    UniversalSpec(16, 1, 2): ("found", 2, 65538, "67e47f8d3b8f5a8cd225b3000f6a7cd7d88c66d298c60ffbbcab2707f6ec3707"),
    CffSpec(14, 0, 3): ("found", 1, 16385, "2e6e15a38c6fe8b624fca13be00a737947a8096fd5620795696b5b63cd7feea4"),
}


def search(spec, budget=SearchBudget()):
    if isinstance(spec, UniversalSpec):
        return minimal_universal_size(spec, budget)
    return minimal_cff_size(spec, budget)


class TestPinnedSearch:
    @pytest.mark.parametrize("spec", list(SEARCHES), ids=repr)
    def test_outcome(self, spec):
        outcome = search(spec)
        assert (
            outcome.status,
            outcome.size,
            outcome.nodes,
            certificate_sha(outcome.certificate),
        ) == SEARCHES[spec]

    @pytest.mark.parametrize(
        "node_limit,nodes",
        [
            (15, 16),  # below the 16 candidate rows: refused before the search
            (17, 18),  # the 16 cover masks fit, the search runs out
        ],
    )
    def test_node_budget_refusals(self, node_limit, nodes):
        outcome = minimal_universal_size(
            UniversalSpec(4, 2, 2), SearchBudget(max_rows=8, node_limit=node_limit)
        )
        assert (outcome.status, outcome.size, outcome.certificate, outcome.nodes) == (
            "budget_exceeded",
            None,
            None,
            nodes,
        )
