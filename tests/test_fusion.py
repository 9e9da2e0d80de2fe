"""Fuzzy discretization and the five-level fusion network.

The posterior oracle here enumerates the full joint distribution of the toy
networks by nested loops, which is tractable because the children are tiny.
"""

import itertools

import numpy as np
import pytest

from oft.errors import ConfigError, DataError
from oft.fusion import (
    FuzzyPartition,
    MwlNetwork,
    SoftEvidence,
    fuse,
    fuzzify,
    mwl_level,
    posterior,
)


def posterior_by_joint_enumeration(prior, tables, likelihoods):
    """Sum the explicit joint P(level, l1, ..., ln) * prod lik over all label
    tuples. tables/likelihoods are parallel lists; likelihood entries are
    dense vectors over the child's labels."""
    n_levels = len(prior)
    out = np.zeros(n_levels)
    ranges = [range(t.shape[1]) for t in tables]
    for k in range(n_levels):
        for combo in itertools.product(*ranges):
            p = prior[k]
            for child, l in enumerate(combo):
                p *= tables[child][k, l] * likelihoods[child][l]
            out[k] += p
    return out / out.sum()


def random_net(rng, label_counts):
    children = {}
    for i, n in enumerate(label_counts):
        cpt = rng.random((5, n)) + 0.05
        cpt /= cpt.sum(axis=1, keepdims=True)
        children[f"c{i}"] = (tuple(f"l{j}" for j in range(n)), cpt)
    prior = rng.random(5) + 0.05
    prior /= prior.sum()
    return MwlNetwork(prior=prior, children=children)


THREE_BAND = FuzzyPartition(
    variable="v",
    labels=("low", "mid", "high"),
    domain=(0.0, 10.0),
    overlaps=((2.0, 4.0), (6.0, 8.0)),
)


class TestFuzzyPartition:
    def test_plateau_memberships(self):
        assert THREE_BAND.membership(1.0) == {"low": 1.0, "mid": 0.0, "high": 0.0}
        assert THREE_BAND.membership(5.0) == {"low": 0.0, "mid": 1.0, "high": 0.0}
        assert THREE_BAND.membership(9.0) == {"low": 0.0, "mid": 0.0, "high": 1.0}

    def test_crossfade_midpoint(self):
        w = THREE_BAND.membership(3.0)
        assert w["low"] == pytest.approx(0.5)
        assert w["mid"] == pytest.approx(0.5)

    def test_crossfade_is_linear(self):
        w = THREE_BAND.membership(6.5)
        assert w["mid"] == pytest.approx(0.75)
        assert w["high"] == pytest.approx(0.25)

    def test_overlap_edges(self):
        assert THREE_BAND.membership(2.0)["low"] == 1.0
        assert THREE_BAND.membership(4.0)["mid"] == 1.0

    def test_clamping_warns(self):
        with pytest.warns(UserWarning, match="outside domain"):
            w = THREE_BAND.membership(12.0)
        assert w["high"] == 1.0

    def test_partition_of_unity(self, rng):
        for _ in range(40):
            cuts = np.sort(rng.uniform(0.0, 10.0, 4))
            part = FuzzyPartition(
                variable="v",
                labels=("a", "b", "c"),
                domain=(0.0, 10.0),
                overlaps=((cuts[0], cuts[1]), (cuts[2], cuts[3])),
            )
            for x in rng.uniform(0.0, 10.0, 25):
                assert sum(part.membership(float(x)).values()) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_count_validated(self):
        with pytest.raises(ConfigError):
            FuzzyPartition("v", ("a", "b", "c"), (0.0, 1.0), ((0.2, 0.4),))

    def test_overlaps_must_not_cross(self):
        with pytest.raises(ConfigError):
            FuzzyPartition("v", ("a", "b", "c"), (0.0, 1.0), ((0.2, 0.6), (0.5, 0.9)))

    def test_fuzzify_wraps_membership(self):
        ev = fuzzify(3.0, THREE_BAND)
        assert ev.variable == "v"
        assert ev.likelihood["low"] == pytest.approx(0.5)


class TestPosterior:
    def test_normalized(self, rng):
        for _ in range(50):
            net = random_net(rng, (2, 3, 4))
            evidence = [
                SoftEvidence(name, {l: float(v) for l, v in zip(labels, rng.random(len(labels)) + 0.01)})
                for name, (labels, _) in net.children.items()
            ]
            post = posterior(net, evidence)
            assert post.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(post >= 0)

    def test_order_invariance(self, rng):
        net = random_net(rng, (3, 2, 3))
        evidence = [
            SoftEvidence("c0", {"l0": 0.2, "l1": 0.5, "l2": 0.3}),
            SoftEvidence("c1", {"l0": 0.9, "l1": 0.1}),
            SoftEvidence("c2", {"l0": 0.1, "l1": 0.1, "l2": 0.8}),
        ]
        base = posterior(net, evidence)
        assert posterior(net, evidence[::-1]) == pytest.approx(base, abs=1e-12)

    def test_scale_invariance(self, rng):
        net = random_net(rng, (3, 3))
        ev_a = [SoftEvidence("c0", {"l0": 0.2, "l2": 0.8}), SoftEvidence("c1", {"l1": 1.0})]
        ev_b = [SoftEvidence("c0", {"l0": 0.2 * 7.3, "l2": 0.8 * 7.3}), SoftEvidence("c1", {"l1": 0.004})]
        assert posterior(net, ev_b) == pytest.approx(posterior(net, ev_a), abs=1e-12)

    def test_no_evidence_returns_prior(self, rng):
        net = random_net(rng, (2,))
        assert posterior(net, []) == pytest.approx(net.prior, abs=1e-12)

    def test_matches_joint_enumeration(self, rng):
        for _ in range(60):
            net = random_net(rng, (2, 3))
            liks = [rng.random(2) + 0.01, rng.random(3) + 0.01]
            evidence = [
                SoftEvidence("c0", {f"l{j}": float(liks[0][j]) for j in range(2)}),
                SoftEvidence("c1", {f"l{j}": float(liks[1][j]) for j in range(3)}),
            ]
            tables = [net.children["c0"][1], net.children["c1"][1]]
            want = posterior_by_joint_enumeration(net.prior, tables, liks)
            assert posterior(net, evidence) == pytest.approx(want, abs=1e-12)

    def test_partial_evidence_marginalizes_silent_children(self, rng):
        # evidence on one child only must equal the single-child network result
        net = random_net(rng, (3, 4))
        ev = [SoftEvidence("c0", {"l0": 0.3, "l1": 0.7})]
        small = MwlNetwork(prior=net.prior, children={"c0": net.children["c0"]})
        assert posterior(net, ev) == pytest.approx(posterior(small, ev), abs=1e-12)

    def test_deterministic_child_pins_level(self):
        eye = np.eye(5)
        net = MwlNetwork(
            prior=np.full(5, 0.2),
            children={"probe": (tuple("abcde"), eye)},
        )
        for k, label in enumerate("abcde"):
            post = posterior(net, [SoftEvidence.hard("probe", label)])
            assert post[k] == pytest.approx(1.0)
            assert mwl_level(post) == k + 1

    def test_duplicate_evidence_rejected(self, rng):
        net = random_net(rng, (2,))
        ev = SoftEvidence("c0", {"l0": 1.0})
        with pytest.raises(DataError, match="duplicate"):
            posterior(net, [ev, ev])

    def test_unknown_variable_rejected(self, rng):
        net = random_net(rng, (2,))
        with pytest.raises(DataError, match="unknown variable"):
            posterior(net, [SoftEvidence("nope", {"l0": 1.0})])

    def test_unknown_label_rejected(self, rng):
        net = random_net(rng, (2,))
        with pytest.raises(DataError, match="unknown labels"):
            posterior(net, [SoftEvidence("c0", {"zz": 1.0})])

    def test_zero_mass_evidence_rejected(self):
        cpt = np.tile([1.0, 0.0], (5, 1))
        net = MwlNetwork(prior=np.full(5, 0.2), children={"c": (("a", "b"), cpt)})
        with pytest.raises(DataError, match="zero probability"):
            posterior(net, [SoftEvidence.hard("c", "b")])

    def test_evidence_validation(self):
        with pytest.raises(DataError):
            SoftEvidence("x", {})
        with pytest.raises(DataError):
            SoftEvidence("x", {"a": -0.1})
        with pytest.raises(DataError):
            SoftEvidence("x", {"a": 0.0, "b": 0.0})


class TestLevel:
    def test_unique_argmax(self):
        assert mwl_level([0.1, 0.6, 0.1, 0.1, 0.1]) == 2

    def test_tie_goes_to_higher_level(self):
        assert mwl_level([0.3, 0.3, 0.2, 0.1, 0.1]) == 2
        assert mwl_level([0.2, 0.2, 0.2, 0.2, 0.2]) == 5

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            mwl_level([0.5, 0.5])


class TestDefaultNetwork:
    # per-child label order from least to most loaded
    LOAD_ORDER = {
        "constraint": ("td1", "td2", "td3"),
        "behaviour": ("none", "performance_oriented", "cost_oriented"),
        "performance": ("good", "degraded", "poor"),
        "effort": ("low", "medium", "high"),
    }

    def fused_level(self, net, ranks):
        ev = [
            SoftEvidence.hard(child, self.LOAD_ORDER[child][rank])
            for child, rank in ranks.items()
        ]
        return mwl_level(posterior(net, ev))

    def test_extremes(self):
        net = MwlNetwork.default()
        assert self.fused_level(net, {c: 0 for c in self.LOAD_ORDER}) == 1
        assert self.fused_level(net, {c: 2 for c in self.LOAD_ORDER}) == 5

    def test_level_never_drops_when_one_indicator_rises(self):
        net = MwlNetwork.default()
        children = tuple(self.LOAD_ORDER)
        for combo in itertools.product(range(3), repeat=4):
            ranks = dict(zip(children, combo))
            base = self.fused_level(net, ranks)
            for child in children:
                if ranks[child] < 2:
                    bumped = dict(ranks)
                    bumped[child] += 1
                    assert self.fused_level(net, bumped) >= base

    def test_partitions_shipped_for_continuous_children(self):
        net = MwlNetwork.default()
        assert set(net.partitions) == {"performance", "effort"}
        for part in net.partitions.values():
            total = sum(part.membership(sum(part.domain) / 2).values())
            assert total == pytest.approx(1.0)

    def test_non_finite_readings_rejected_by_every_partition(self):
        net = MwlNetwork.default()
        for part in net.partitions.values():
            for x in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(DataError, match=part.variable):
                    fuzzify(x, part)
            # finite readings outside the domain are still clamped
            with pytest.warns(UserWarning, match="outside domain"):
                w = part.membership(part.domain[1] + 1.0)
            assert w[part.labels[-1]] == 1.0

    def test_load_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "net.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            MwlNetwork.load(bad)
        with pytest.raises(ConfigError):
            MwlNetwork.load(tmp_path / "missing.json")


class TestNetworkValidation:
    def test_prior_must_be_distribution(self):
        with pytest.raises(ConfigError):
            MwlNetwork(prior=np.array([0.5, 0.5, 0.0, 0.0, 0.1]), children={})

    def test_cpt_rows_must_be_distributions(self):
        bad = np.full((5, 2), 0.4)
        with pytest.raises(ConfigError):
            MwlNetwork(prior=np.full(5, 0.2), children={"c": (("a", "b"), bad)})

    def test_cpt_shape_checked(self):
        with pytest.raises(ConfigError):
            MwlNetwork(prior=np.full(5, 0.2), children={"c": (("a",), np.ones((4, 1)))})


def test_fuse_packages_state(rng):
    net = random_net(rng, (2,))
    state = fuse(net, 17, [SoftEvidence("c0", {"l0": 0.4, "l1": 0.6})])
    assert state.t == 17
    assert state.level == mwl_level(np.array(state.posterior))
    assert sum(state.posterior) == pytest.approx(1.0, abs=1e-9)
    assert state.evidence == {"c0": {"l0": 0.4, "l1": 0.6}}
