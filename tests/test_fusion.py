"""Fuzzy discretization and the five-level fusion network.

The posterior oracle here enumerates the full joint distribution of the toy
networks by nested loops, which is tractable because the children are tiny.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oft import microworld
from oft.errors import ConfigError, DataError
from oft.fusion import (
    FuzzyPartition,
    MwlNetwork,
    MwlState,
    fuse,
    fuzzify,
    mwl_level,
    posterior,
)
from oft.regulation import ActivitySnapshot, RegulationEvent, RegulationKind
from oft.taskload import DiscretizedConstraints


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


def posterior_by_matmul(net, evidence):
    """The dense reference, every variable's likelihood as cpt @ lik; None
    when the evidence has zero mass."""
    post = net.prior.copy()
    for variable, likelihood in evidence.items():
        labels, cpt = net.children[variable]
        post = post * (cpt @ np.array([likelihood.get(label, 0.0) for label in labels]))
    total = post.sum()
    return post / total if total > 0.0 else None


def random_net(rng, label_counts, zero_share=0.0):
    children = {}
    for i, n in enumerate(label_counts):
        cpt = rng.random((5, n)) + 0.05
        if zero_share:
            cpt[rng.random((5, n)) < zero_share] = 0.0
            cpt[cpt.sum(axis=1) == 0.0, 0] = 1.0
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
        lik = fuzzify(3.0, THREE_BAND)
        assert type(lik) is dict and list(lik) == ["low", "mid"]
        assert lik["low"] == pytest.approx(0.5)


class TestPosterior:
    def test_normalized(self, rng):
        for _ in range(50):
            net = random_net(rng, (2, 3, 4))
            evidence = {
                name: {l: float(v) for l, v in zip(labels, rng.random(len(labels)) + 0.01)}
                for name, (labels, _) in net.children.items()
            }
            post = posterior(net, evidence)
            assert sum(post) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in post)

    def test_order_invariance(self, rng):
        net = random_net(rng, (3, 2, 3))
        evidence = {
            "c0": {"l0": 0.2, "l1": 0.5, "l2": 0.3},
            "c1": {"l0": 0.9, "l1": 0.1},
            "c2": {"l0": 0.1, "l1": 0.1, "l2": 0.8},
        }
        base = posterior(net, evidence)
        reversed_order = dict(reversed(evidence.items()))
        assert posterior(net, reversed_order) == pytest.approx(base, abs=1e-12)

    def test_scale_invariance(self, rng):
        net = random_net(rng, (3, 3))
        ev_a = {"c0": {"l0": 0.2, "l2": 0.8}, "c1": {"l1": 1.0}}
        ev_b = {"c0": {"l0": 0.2 * 7.3, "l2": 0.8 * 7.3}, "c1": {"l1": 0.004}}
        assert posterior(net, ev_b) == pytest.approx(posterior(net, ev_a), abs=1e-12)

    def test_no_evidence_returns_prior(self, rng):
        net = random_net(rng, (2,))
        assert posterior(net, {}) == pytest.approx(net.prior, abs=1e-12)

    def test_matches_joint_enumeration(self, rng):
        for _ in range(60):
            net = random_net(rng, (2, 3))
            liks = [rng.random(2) + 0.01, rng.random(3) + 0.01]
            evidence = {
                "c0": {f"l{j}": float(liks[0][j]) for j in range(2)},
                "c1": {f"l{j}": float(liks[1][j]) for j in range(3)},
            }
            tables = [net.children["c0"][1], net.children["c1"][1]]
            want = posterior_by_joint_enumeration(net.prior, tables, liks)
            assert posterior(net, evidence) == pytest.approx(want, abs=1e-12)

    def test_partial_evidence_marginalizes_silent_children(self, rng):
        # evidence on one child only must equal the single-child network result
        net = random_net(rng, (3, 4))
        ev = {"c0": {"l0": 0.3, "l1": 0.7}}
        small = MwlNetwork(prior=net.prior, children={"c0": net.children["c0"]})
        assert posterior(net, ev) == pytest.approx(posterior(small, ev), abs=1e-12)

    def test_deterministic_child_pins_level(self):
        eye = np.eye(5)
        net = MwlNetwork(
            prior=np.full(5, 0.2),
            children={"probe": (tuple("abcde"), eye)},
        )
        for k, label in enumerate("abcde"):
            post = posterior(net, {"probe": {label: 1.0}})
            assert post[k] == pytest.approx(1.0)
            assert mwl_level(post) == k + 1

    def test_unknown_variable_rejected(self, rng):
        net = random_net(rng, (2,))
        with pytest.raises(DataError, match="unknown variable"):
            posterior(net, {"nope": {"l0": 1.0}})

    def test_unknown_label_rejected(self, rng):
        net = random_net(rng, (2,))
        with pytest.raises(DataError, match="unknown labels"):
            posterior(net, {"c0": {"zz": 1.0}})

    def test_zero_mass_evidence_rejected(self):
        cpt = np.tile([1.0, 0.0], (5, 1))
        net = MwlNetwork(prior=np.full(5, 0.2), children={"c": (("a", "b"), cpt)})
        with pytest.raises(DataError, match="zero probability"):
            posterior(net, {"c": {"b": 1.0}})

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_evidence_rejected(self, rng):
        net = random_net(rng, (2, 2, 2))
        huge = {f"c{i}": {"l0": 1e300, "l1": 1e300} for i in range(3)}
        with pytest.raises(DataError, match="overflow"):
            posterior(net, huge)

    def test_evidence_validation(self, rng):
        net = random_net(rng, (2, 2))
        # an empty or all-zero likelihood leaves no mass
        with pytest.raises(DataError, match="zero probability"):
            posterior(net, {"c0": {}})
        with pytest.raises(DataError, match="zero probability"):
            posterior(net, {"c1": {"l0": 1.0}, "c0": {"l0": 0.0, "l1": 0.0}})
        with pytest.raises(DataError, match="'c0': likelihood -0.1 is not a finite number"):
            posterior(net, {"c0": {"l0": -0.1}})
        with pytest.raises(DataError, match="'c1': likelihood -0.1 is not a finite number"):
            posterior(net, {"c0": {"l0": 1.0}, "c1": {"l0": 0.5, "l1": -0.1}})

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -float("inf"),
        pytest.param(np.float32("inf"), id="float32-inf"),
        pytest.param(np.float64("nan"), id="float64-nan"),
    ])
    def test_non_finite_evidence_rejected(self, rng, bad):
        net = random_net(rng, (2,))
        with pytest.raises(DataError, match="not a finite number"):
            posterior(net, {"c0": {"l0": bad}})
        with pytest.raises(DataError, match="not a finite number"):
            posterior(net, {"c0": {"l0": 0.5, "l1": bad}})

    @pytest.mark.parametrize("weights", [
        {"l1": 3}, {"l1": np.float64(0.3)}, {"l1": np.float32(0.3)}, {"l1": True},
        {"l0": 1, "l1": 2}, {"l0": np.float32(0.25), "l1": np.float64(0.5)},
        {"l0": np.int64(2), "l1": 10**300},
    ])
    def test_int_and_numpy_weights_give_floats(self, rng, weights):
        """The weights are read as floats, exactly as the float weights would be."""
        net = random_net(rng, (3, 2))
        evidence = {"c1": {"l1": 0.7}, "c0": weights}
        as_floats = {"c1": {"l1": 0.7}, "c0": {l: float(w) for l, w in weights.items()}}
        got = posterior(net, evidence)
        assert all(type(p) is float for p in got)
        assert got == posterior(net, as_floats)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_times_zero_rejected(self, rng):
        # the overflowed terms are inf, and inf times the zero term is NaN
        net = random_net(rng, (2, 2, 2, 2))
        evidence = {f"c{i}": {"l0": 1e300, "l1": 1e300} for i in range(3)}
        evidence["c3"] = {"l0": 0.0}
        with pytest.raises(DataError, match="overflow"):
            posterior(net, evidence)

    def test_matches_matmul_reference_bit_for_bit(self, rng):
        for _ in range(300):
            counts = tuple(int(n) for n in rng.integers(1, 6, size=int(rng.integers(1, 5))))
            net = random_net(rng, counts, zero_share=0.2)  # so 0 * weight terms occur
            evidence = {}
            for name, (labels, _) in net.children.items():
                kind = rng.integers(4)
                label = labels[rng.integers(len(labels))]
                if kind == 0:
                    evidence[name] = {label: 1.0}
                elif kind == 1:
                    evidence[name] = {label: float(rng.random() * 50 + 1e-3)}
                else:
                    picked = [l for l in labels if kind == 2 or rng.random() < 0.6] or [labels[0]]
                    evidence[name] = {l: float(rng.random() + 1e-3) for l in picked}
            want = posterior_by_matmul(net, evidence)
            if want is None:
                with pytest.raises(DataError, match="zero probability"):
                    posterior(net, evidence)
            else:
                assert np.array_equal(posterior(net, evidence), want)


@st.composite
def net_and_evidence(draw):
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_net(rng, counts)
    weight = st.floats(1e-3, 1e3)
    evidence = {}
    for name, (labels, _) in net.children.items():
        if not draw(st.booleans()):
            continue
        picked = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        evidence[name] = {l: draw(weight) for l in picked}
    return net, evidence


class TestPosteriorProperties:
    @settings(max_examples=200, deadline=None)
    @given(net_and_evidence(), st.randoms(use_true_random=False))
    def test_evidence_order_does_not_matter(self, case, shuffler):
        net, evidence = case
        shuffled = list(evidence.items())
        shuffler.shuffle(shuffled)
        np.testing.assert_allclose(posterior(net, dict(shuffled)), posterior(net, evidence),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(net_and_evidence(), st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4))
    def test_positive_likelihood_scaling_does_not_matter(self, case, scales):
        net, evidence = case
        scaled = {
            variable: {l: w * c for l, w in likelihood.items()}
            for (variable, likelihood), c in zip(evidence.items(), scales)
        }
        np.testing.assert_allclose(posterior(net, scaled), posterior(net, evidence),
                                   rtol=0, atol=1e-12)


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
        ev = {child: {self.LOAD_ORDER[child][rank]: 1.0} for child, rank in ranks.items()}
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
    state = fuse(net, 17, {"c0": {"l0": 0.4, "l1": 0.6}})
    assert state.t == 17
    assert state.level == mwl_level(np.array(state.posterior))
    assert sum(state.posterior) == pytest.approx(1.0, abs=1e-9)


# the per-second value types, fields in order
@pytest.mark.parametrize("cls,fields", [
    (ActivitySnapshot, {"t": 3, "nps": 2, "cps": 1, "dcps": -1, "dnps": 1, "perf": 0.5}),
    (RegulationEvent, {"t": 3, "kind": RegulationKind.COBR}),
    (DiscretizedConstraints, {"n1_level": "low", "n2_level": "high", "entropy_level": "medium"}),
    (MwlState, {"t": 3, "posterior": (0.1, 0.2, 0.4, 0.2, 0.1), "level": 3}),
])
def test_per_second_value_types(cls, fields):
    assert cls._fields == tuple(fields)
    value = cls(**fields)
    assert value == cls(*fields.values())
    for name, field_value in fields.items():
        assert getattr(value, name) is field_value
        with pytest.raises(AttributeError):
            setattr(value, name, field_value)


# ---------------------------------------------------------------------------
# the fusion oracle: posterior, mwl_level and fuzzify as they were before the
# per-net column tables and the nonzero-label evidence, kept as the
# reference; only the evidence form changed, from a list of per-variable
# objects to a mapping


def _oracle_posterior(net, evidence):
    post = net.prior.copy()
    for variable, likelihood in evidence.items():
        if variable not in net.children:
            raise DataError(f"evidence for unknown variable {variable!r}")
        labels, cpt = net.children[variable]
        unknown = set(likelihood) - set(labels)
        if unknown:
            raise DataError(
                f"evidence for {variable!r} names unknown labels {sorted(unknown)}"
            )
        if len(likelihood) == 1:
            # the other terms of cpt @ lik are +0.0, so this is the same bits
            ((label, weight),) = likelihood.items()
            post = post * (cpt[:, labels.index(label)] * weight)
        else:
            lik = np.array([likelihood.get(label, 0.0) for label in labels])
            post = post * (cpt @ lik)
    total = post.sum()
    if total <= 0.0:
        raise DataError("evidence has zero probability under the model")
    if total == math.inf:
        raise DataError("evidence likelihoods overflow; scale them down")
    return post / total


def _oracle_mwl_level(post):
    p = np.asarray(post, dtype=float)
    if p.shape != (5,):
        raise ValueError("posterior must have 5 entries")
    best = p.max()
    for k in range(4, -1, -1):
        if p[k] == best:
            return k + 1
    raise ValueError("posterior has no maximum")


def _oracle_fuzzify(x, partition):
    """Every label listed, zeros included."""
    return partition.membership(x)


def same_bits(got, want):
    """`got` is five exact floats in a tuple, bit for bit the array `want`."""
    return (type(got) is tuple and len(got) == 5 and all(type(p) is float for p in got)
            and np.array(got).tobytes() == want.tobytes())


def random_evidence(rng, net):
    """Hard, weighted single-label, two-label or any-label evidence on a
    random subset of the children, in random order."""
    evidence = []
    for name, (labels, _) in net.children.items():
        kind = rng.integers(5)
        i = int(rng.integers(len(labels)))
        if kind == 0:
            continue
        if kind == 1:
            lik = {labels[i]: 1.0}
        elif kind == 2:
            lik = {labels[i]: float(rng.random() * 50 + 1e-3)}
        elif kind == 3 and len(labels) > 1:
            j = min(i, len(labels) - 2)
            up = float(rng.random())
            lik = {labels[j]: 1.0 - up, labels[j + 1]: up}
        else:
            picked = [l for l in labels if rng.random() < 0.6] or [labels[i]]
            lik = {l: float(rng.random() + 1e-3) for l in picked}
        evidence.append((name, lik))
    rng.shuffle(evidence)
    return dict(evidence)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DataError, ValueError) as exc:
        return type(exc), str(exc)


class TestFusionOracle:
    def test_posterior_bit_for_bit_on_random_nets(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(2000):
            counts = tuple(int(n) for n in rng.integers(1, 6, size=int(rng.integers(1, 6))))
            net = random_net(rng, counts, zero_share=0.2)
            evidence = random_evidence(rng, net)
            want = outcome(_oracle_posterior, net, evidence)
            got = outcome(posterior, net, evidence)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert same_bits(got, want)
                checked += 1
        assert checked > 1500

    def test_level_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(3000):
            post = rng.integers(0, 4, 5) / 4.0  # ties are common
            for form in (post, post.tolist(), tuple(post.tolist())):
                assert mwl_level(form) == _oracle_mwl_level(post)
        for bad in ([0.2, float("nan"), 0.3, 0.1, 0.1], [float("nan")] * 5, [0.5, 0.5]):
            assert outcome(mwl_level, bad) == outcome(_oracle_mwl_level, bad)

    @pytest.mark.parametrize("case", [
        "unknown variable", "unknown label", "unknown labels",
        "zero mass", "zero mass multi", "overflow",
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_same_errors(self, case):
        net = random_net(np.random.default_rng(3), (2, 3, 3))
        net = MwlNetwork(prior=net.prior, children={
            **net.children, "z": (("a", "b", "c"), np.tile([1.0, 0.0, 0.0], (5, 1)))})
        evidence = {
            "unknown variable": {"c1": {"l0": 1.0}, "nope": {"l0": 1.0}},
            "unknown label": {"c1": {"zz": 3.0}},
            "unknown labels": {"c2": {"l1": 0.5, "zz": 0.1, "aa": 0.2, "l0": 1.0}},
            "zero mass": {"c0": {"l1": 1.0}, "z": {"b": 1.0}},
            "zero mass multi": {"z": {"b": 0.5, "c": 0.5}},
            "overflow": {f"c{i}": {"l0": 1e300, "l1": 1e300} for i in range(3)},
        }[case]
        want = outcome(_oracle_posterior, net, evidence)
        assert isinstance(want, tuple) and want[0] is DataError
        assert outcome(posterior, net, evidence) == want

    @pytest.mark.parametrize("operator,dfa", [
        ("degrading-overload", True), ("degrading-overload", False), ("diligent", False),
    ])
    def test_every_tick_of_a_session(self, monkeypatch, operator, dfa):
        """Each tick's posterior equals the oracle's on the same evidence and
        on the evidence an every-label fuzzify would give, and the evidence
        comes in the order constraint, behaviour, performance, effort."""
        calls = []

        def checked(net, evidence):
            post = posterior(net, evidence)
            dense = {
                variable: ({l: likelihood.get(l, 0.0) for l in net.children[variable][0]}
                           if variable in net.partitions else likelihood)
                for variable, likelihood in evidence.items()
            }
            assert list(evidence) in (["constraint", "behaviour", "performance", "effort"],
                                      ["behaviour", "performance", "effort"])
            assert same_bits(post, _oracle_posterior(net, evidence))
            assert same_bits(post, _oracle_posterior(net, dense))
            calls.append(len(evidence))
            return post

        monkeypatch.setattr(microworld, "posterior", checked)
        config = microworld.ScenarioConfig(operator=operator, seed=7, dfa=dfa, duration_s=1200)
        result = microworld.run_scenario(config)
        assert len(calls) == 1200
        ticks = [r for r in result.records if r["record"] == "tick"]
        assert [r["level"] for r in ticks] == [
            _oracle_mwl_level(r["posterior"]) for r in ticks]


class TestFuzzifyNonzero:
    PARTS = [THREE_BAND, *MwlNetwork.default().partitions.values()]

    @pytest.mark.parametrize("part", PARTS, ids=lambda p: p.variable)
    def test_nonzero_labels_of_membership(self, part):
        lo, hi = part.domain
        edges = [x for o in part.overlaps for x in o]
        xs = np.r_[np.linspace(lo, hi, 301), edges,
                   [math.nextafter(e, -math.inf) for e in edges],
                   [math.nextafter(e, math.inf) for e in edges]]
        for x in xs.tolist():
            lik = fuzzify(x, part)
            want = _oracle_fuzzify(x, part)
            assert type(lik) is dict
            assert lik == {l: w for l, w in want.items() if w != 0.0}
            assert list(lik) == [l for l in part.labels if l in lik]
            assert all(type(w) is float and w > 0.0 for w in lik.values())
            assert len(lik) in (1, 2) and sum(lik.values()) == 1.0

    def test_overlap_weight_rounding_to_an_end(self):
        # (x - lo) / (hi - lo) underflows to 0 here, and rounds to 1 there
        part = FuzzyPartition("v", ("a", "b"), (0.0, 10.0), ((0.0, 4.0),))
        assert fuzzify(5e-324, part) == {"a": 1.0}
        assert part.membership(5e-324) == {"a": 1.0, "b": 0.0}
        lo, hi = -2.434454589115478, -0.7838273344621424
        part = FuzzyPartition("v", ("a", "b"), (-5.0, 5.0), ((lo, hi),))
        x = math.nextafter(hi, -math.inf)
        assert fuzzify(x, part) == {"b": 1.0}
        assert part.membership(x) == {"a": 0.0, "b": 1.0}

    def test_reading_checks_kept(self):
        with pytest.warns(UserWarning, match="outside domain"):
            assert fuzzify(-3.0, THREE_BAND) == {"low": 1.0}
        with pytest.raises(DataError, match="reading nan is not finite"):
            fuzzify(float("nan"), THREE_BAND)

    def test_overlap_wider_than_the_largest_float_rejected(self):
        with pytest.raises(ConfigError, match="too wide"):
            FuzzyPartition("v", ("a", "b"), (-1e308, 1e308), ((-1e308, 1e308),))


def test_fuse_state_holds_floats(rng):
    net = random_net(rng, (3,))
    evidence = {"c0": {"l0": 0.4, "l2": 0.6}}
    state = fuse(net, 4, evidence)
    assert all(type(p) is float for p in state.posterior)
    assert state.posterior == tuple(_oracle_posterior(net, evidence).tolist())
