"""Fuzzy discretization and the five-level fusion network.

The posterior oracle here enumerates the full joint distribution of the toy
networks by nested loops, which is tractable because the children are tiny.
"""

import itertools
import json
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
from oft.jsonl import DATA
from oft.regulation import ActivitySnapshot, RegulationEvent, RegulationKind, TaskTick
from oft.taskload import ConstraintFrame, DiscretizedConstraints


def posterior_by_joint_enumeration(prior, tables, likelihoods):
    """Sum the explicit joint P(level, l1, ..., ln) * prod lik over all label
    tuples. tables/likelihoods are parallel lists; likelihood entries are
    dense vectors over the child's labels."""
    n_levels = len(prior)
    tables = [np.asarray(t) for t in tables]
    out = np.zeros(n_levels)
    ranges = [range(t.shape[1]) for t in tables]
    for k in range(n_levels):
        for combo in itertools.product(*ranges):
            p = prior[k]
            for child, l in enumerate(combo):
                p *= tables[child][k, l] * likelihoods[child][l]
            out[k] += p
    return out / out.sum()


def dense_term(cpt, lik):
    """sum_l cpt[k, l] * lik[l] for every level, the labels added left to
    right: numpy sums a row of fewer than 8 entries in order, where a BLAS
    `cpt @ lik` may fuse the multiply-adds, whose bits depend on the CPU."""
    cpt = np.asarray(cpt)
    assert cpt.shape[1] < 8
    return (cpt * lik).sum(axis=1)


def posterior_by_dense_sum(net, evidence):
    """The dense reference, every variable's likelihood as a term over all
    of its labels; None when the evidence has zero mass."""
    post = np.asarray(net.prior)
    for variable, likelihood in evidence.items():
        labels, cpt = net.children[variable]
        post = post * dense_term(cpt, np.array([likelihood.get(label, 0.0) for label in labels]))
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
        assert fuzzify(1.0, THREE_BAND) == {"low": 1.0}
        assert fuzzify(5.0, THREE_BAND) == {"mid": 1.0}
        assert fuzzify(9.0, THREE_BAND) == {"high": 1.0}

    def test_crossfade_midpoint(self):
        w = fuzzify(3.0, THREE_BAND)
        assert w["low"] == pytest.approx(0.5)
        assert w["mid"] == pytest.approx(0.5)

    def test_crossfade_is_linear(self):
        w = fuzzify(6.5, THREE_BAND)
        assert list(w) == ["mid", "high"]
        assert w["mid"] == pytest.approx(0.75)
        assert w["high"] == pytest.approx(0.25)

    def test_overlap_edges(self):
        assert fuzzify(2.0, THREE_BAND) == {"low": 1.0}
        assert fuzzify(4.0, THREE_BAND) == {"mid": 1.0}

    def test_clamping_warns(self):
        with pytest.warns(UserWarning, match="outside domain"):
            w = fuzzify(12.0, THREE_BAND)
        assert w == {"high": 1.0}

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
                assert sum(fuzzify(float(x), part).values()) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_count_validated(self):
        with pytest.raises(ConfigError):
            FuzzyPartition("v", ("a", "b", "c"), (0.0, 1.0), ((0.2, 0.4),))

    def test_overlaps_must_not_cross(self):
        with pytest.raises(ConfigError):
            FuzzyPartition("v", ("a", "b", "c"), (0.0, 1.0), ((0.2, 0.6), (0.5, 0.9)))

    def test_fuzzify_lists_nonzero_labels_in_order(self):
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

    @pytest.mark.parametrize("weights,shown", [
        ({"good": 10**400}, "1.000e+400"),
        ({"good": 10**400, "poor": 0.5}, "1.000e+400"),
        ({"degraded": 0.5, "poor": 7 * 10**5000}, "7.000e+5000"),  # past repr's digit limit
    ], ids=["single label", "two labels", "past the digit limit"])
    def test_integer_weight_past_the_floats_rejected(self, weights, shown):
        # such an integer passes the range check; reading it as a float overflows
        with pytest.raises(DataError) as info:
            posterior(MwlNetwork.default(), {"constraint": {"td1": 1.0}, "performance": weights})
        assert str(info.value) == (
            f"evidence for 'performance': likelihood {shown} is past the float range"
        )

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

    def test_matches_dense_reference_bit_for_bit(self, rng):
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
            want = posterior_by_dense_sum(net, evidence)
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
            total = sum(fuzzify(sum(part.domain) / 2, part).values())
            assert total == pytest.approx(1.0)

    def test_non_finite_readings_rejected_by_every_partition(self):
        net = MwlNetwork.default()
        for part in net.partitions.values():
            for x in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(DataError, match=part.variable):
                    fuzzify(x, part)
            # finite readings outside the domain are still clamped
            with pytest.warns(UserWarning, match="outside domain"):
                w = fuzzify(part.domain[1] + 1.0, part)
            assert w == {part.labels[-1]: 1.0}

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

    def test_nan_entries_rejected(self):
        # a NaN compares false both ways, so it used to pass both checks
        prior = np.full(5, 0.2)
        prior[2] = math.nan
        with pytest.raises(ConfigError, match="prior"):
            MwlNetwork(prior=prior, children={})
        cpt = np.full((5, 2), 0.5)
        cpt[1, 0] = math.nan
        with pytest.raises(ConfigError, match="distribution"):
            MwlNetwork(prior=np.full(5, 0.2), children={"c": (("a", "b"), cpt)})

    @pytest.mark.parametrize("domain", [(), (0.0,), (0.0, 1.0, 2.0), "01", {0: 0.0, 1: 1.0},
                                        (math.nan, 1.0)])
    def test_partition_domain_is_two_numbers(self, domain):
        with pytest.raises(ConfigError, match="domain"):
            FuzzyPartition("v", ("a",), domain, ())

    # arguments that Python's own errors used to report
    @pytest.mark.parametrize("labels,domain,overlaps,message", [
        ([[1], [2]], (0.0, 1.0), ((0.4, 0.6),), "unhashable type: 'list'"),
        (("a", "b"), (0.0, 1.0), ((0.4,),), "not enough values to unpack"),
        (("a", "b"), None, ((0.4, 0.6),), "'NoneType' object is not iterable"),
        (("a", "b"), (0.0, 1.0), (("0.4x", 0.6),), "'0.4x' is not a number"),
        (("a", "b"), (0.0, 10**400), ((0.4, 0.6),), "int too large to convert to float"),
    ])
    def test_partition_arguments_refused_with_config_error(self, labels, domain, overlaps,
                                                            message):
        with pytest.raises(ConfigError, match=f"^partition v: {message}"):
            FuzzyPartition("v", labels, domain, overlaps)

    def test_a_partition_key_it_does_not_read_is_refused(self):
        raw = json.loads((DATA / "mwl_net.json").read_text())
        raw["partitions"]["effort"]["comment"] = "z-scored pupil"
        with pytest.raises(ConfigError, match="workload network config: .*'comment'"):
            MwlNetwork.from_dict(raw)

    def test_a_missing_key_is_named(self):
        raw = json.loads((DATA / "mwl_net.json").read_text())
        del raw["children"]["effort"]["cpt"]
        with pytest.raises(ConfigError, match="^workload network config: missing key 'cpt'$"):
            MwlNetwork.from_dict(raw)


# a label list written as a JSON string, and a partition label its child lacks
BAD_LABELS = {
    "child string": (("children", "effort"), "lmh", "child effort: labels must be a non-empty list"),
    "partition string": (("partitions", "effort"), "lmh",
                         "partition effort: labels must be a non-empty list"),
    "partition mismatch": (("partitions", "performance"), ["poor", "bad", "good"],
                           r"partition performance: labels \['bad'\] are not labels of child"),
}


class TestLabels:
    @pytest.mark.parametrize("case", BAD_LABELS)
    def test_from_dict_refuses(self, case):
        (section, name), labels, message = BAD_LABELS[case]
        raw = json.loads((DATA / "mwl_net.json").read_text())
        raw[section][name]["labels"] = labels
        with pytest.raises(ConfigError, match=message):
            MwlNetwork.from_dict(raw)

    @pytest.mark.parametrize("case", BAD_LABELS)
    def test_constructor_refuses(self, case):
        (section, name), labels, message = BAD_LABELS[case]
        net = MwlNetwork.default()
        children, partitions = dict(net.children), dict(net.partitions)
        with pytest.raises(ConfigError, match=message):
            if section == "children":
                children[name] = (labels, children[name][1])
            else:
                old = partitions[name]
                partitions[name] = FuzzyPartition(name, labels, old.domain, old.overlaps)
            MwlNetwork(prior=net.prior, children=children, partitions=partitions)


# ---------------------------------------------------------------------------
# the network's checks against the numpy checks they replaced


def holds_a_string_or_bool(value):
    """Whether a string or a bool stands anywhere in nested lists."""
    if isinstance(value, (list, tuple)):
        return any(map(holds_a_string_or_bool, value))
    return isinstance(value, (str, bool))


def numpy_checks_accept(prior, children):
    """Whether MwlNetwork accepted a prior and tables when it read them with
    np.asarray(dtype=float): shape, every entry >= 0, every sum within 1e-9
    of 1 (numpy adds fewer than 8 entries left to right). Unlike numpy, it
    refuses a numeric string or a bool where a number belongs."""
    if holds_a_string_or_bool([prior, *(cpt for _, cpt in children.values())]):
        return False
    try:
        with np.errstate(all="ignore"):
            prior = np.asarray(prior, dtype=float)
            ok = prior.shape == (5,) and np.all(prior >= 0) and abs(prior.sum() - 1.0) <= 1e-9
            for labels, cpt in children.values():
                cpt = np.asarray(cpt, dtype=float)
                ok = ok and cpt.shape == (5, len(labels)) and np.all(cpt >= 0) and np.all(
                    np.abs(cpt.sum(axis=1) - 1.0) <= 1e-9)
    except (TypeError, ValueError, OverflowError):
        return False
    return bool(ok)


# what can stand in for a table or prior entry, besides a numeric string:
# ints read as numbers; bools, like strings, are refused; the rest fail a check
ODD_ENTRIES = [math.nan, -0.25, -1e-300, 0, 1, True, False, None, [0.5], [[0.5]], 10**400,
               math.inf, "abc", ""]


@st.composite
def network_inputs(draw):
    """A prior and tables near the edge of both checks: rows summing to
    1 + k * 1e-10, odd or negative entries, rows or entries missing or extra."""

    def row(n):
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        row = [w / sum(weights) for w in weights]
        row[draw(st.integers(0, n - 1))] += draw(st.integers(-15, 15)) * 1e-10
        return row

    def spoil(rows):
        kind = draw(st.sampled_from(["none", "none", "entry", "string", "shift", "drop", "add",
                                     "nest"]))
        if kind == "shift":  # the sum stays, an entry may fall below 0
            r = rows[draw(st.integers(0, len(rows) - 1))]
            shift = draw(st.sampled_from([0.5, 1e-12, 2.0]))
            r[0] += shift
            r[-1] -= shift
        elif kind in ("entry", "string"):
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows[i]) - 1))
            value = rows[i][j]
            rows[i][j] = draw(st.sampled_from(ODD_ENTRIES)) if kind == "entry" else str(value)
        elif kind == "drop":
            rows[draw(st.integers(0, len(rows) - 1))].pop()
        elif kind == "add":
            rows[draw(st.integers(0, len(rows) - 1))].append(0.0)
        elif kind == "nest":
            rows = [rows]
        return rows

    n_levels = draw(st.sampled_from([5, 5, 5, 4, 6]))
    prior = spoil([row(n_levels)])
    prior = prior[0] if len(prior) == 1 else prior
    children = {}
    for c in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 7))
        children[f"c{c}"] = (tuple(f"l{j}" for j in range(n)),
                             spoil([row(n) for _ in range(draw(st.sampled_from([5, 5, 4, 6])))]))
    return prior, children


class TestNetworkChecksMatchNumpy:
    @settings(max_examples=400, deadline=None)
    @given(network_inputs())
    def test_same_verdict_and_columns(self, inputs):
        prior, children = inputs
        want = numpy_checks_accept(prior, children)
        try:
            net = MwlNetwork(prior=prior, children=children)
        except ConfigError:
            assert not want
            return
        assert want
        rebuilt = MwlNetwork(prior=net.prior, children=net.children)
        for name, (labels, table) in children.items():
            cpt = np.asarray(table, dtype=float)
            for i, label in enumerate(labels):
                bits = [p.hex() for p in cpt[:, i].tolist()]
                assert [p.hex() for p in net._columns[name][label]] == bits
                assert [p.hex() for p in rebuilt._columns[name][label]] == bits

    # added left to right, the first sums to within 1e-9 of 1 and the second
    # does not; their exact sums (math.fsum, or the builtin sum, which
    # compensates from Python 3.12) fall on the other side of the tolerance
    @pytest.mark.parametrize("prior", [[0.1, 0.3, 0.2, 0.1, 0.29999999899999996],
                                       [0.2, 0.4, 0.3, 0.1, 9.99999860695766e-10]])
    def test_a_sum_on_the_tolerance_edge_gets_numpy_s_verdict(self, prior):
        accept = numpy_checks_accept(prior, {})
        assert accept != (abs(math.fsum(prior) - 1.0) <= 1e-9)
        if accept:
            assert MwlNetwork(prior=prior, children={}).prior == tuple(prior)
        else:
            with pytest.raises(ConfigError):
                MwlNetwork(prior=prior, children={})

    @pytest.mark.parametrize("prior", ["10000", "0.2", {"0.2": 1, "0.3": 1}, 1.0, None,
                                       [[0.2]] * 5])
    def test_a_prior_that_is_no_list_is_a_config_error(self, prior):
        assert not numpy_checks_accept(prior, {})
        with pytest.raises(ConfigError):
            MwlNetwork(prior=prior, children={})

    @pytest.mark.parametrize("children", [
        [("a", np.ones((5, 1)))], {"c": "ab"}, {"c": (("a",), "11111")},
        {"c": (("a",), [{"1": 0}] * 5)}, {"c": ((["a"],), np.ones((5, 1)))}, {"c": (("a",),)},
    ])
    def test_children_that_cannot_be_read_are_a_config_error(self, children):
        with pytest.raises(ConfigError):
            MwlNetwork(prior=np.full(5, 0.2), children=children)


class TestNetworkOwnsItsTables:
    def test_changing_what_it_was_built_from_changes_nothing(self):
        net = MwlNetwork.default()
        labels, table = net.children["performance"]
        prior, cpt = list(net.prior), np.asarray(table)
        children = {"performance": (labels, cpt)}
        partitions = dict(net.partitions)
        built = MwlNetwork(prior=prior, children=children, partitions=partitions)

        def query():
            return posterior(built, {"performance": fuzzify(0.45, built.partitions["performance"])})

        want = query()
        prior[0], cpt[:, 0] = math.nan, math.nan
        children["effort"] = net.children["effort"]
        partitions["performance"] = partitions["effort"]
        assert query() == want
        assert built.prior == net.prior and set(built.children) == {"performance"}
        assert built.children["performance"][1] == table
        assert built.partitions == net.partitions

    def test_fields_are_read_only(self):
        net = MwlNetwork.default()
        with pytest.raises(TypeError):
            net.children["behaviour"] = net.children["constraint"]
        with pytest.raises(TypeError):
            net.partitions["performance"] = net.partitions["effort"]
        with pytest.raises(TypeError):
            net.prior[0] = 1.0
        assert net == MwlNetwork.default()


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
    (TaskTick, {"t": 3, "at": {"a": 1, "b": 0}, "ot": {"a": 0}}),
    (ConstraintFrame, {"t": 3, "n1": 4, "n2": 0, "entropy": 0.5}),
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
# objects to a mapping, and the dense term, from BLAS `cpt @ lik` to a
# left-to-right sum (dense_term)


def _oracle_posterior(net, evidence):
    post = np.asarray(net.prior)
    for variable, likelihood in evidence.items():
        if variable not in net.children:
            raise DataError(f"evidence for unknown variable {variable!r}")
        labels, cpt = net.children[variable]
        cpt = np.asarray(cpt)
        unknown = set(likelihood) - set(labels)
        if unknown:
            raise DataError(
                f"evidence for {variable!r} names unknown labels {sorted(unknown)}"
            )
        if len(likelihood) == 1:
            # the other terms of the sum are +0.0, so this is the same bits
            ((label, weight),) = likelihood.items()
            post = post * (cpt[:, labels.index(label)] * weight)
        else:
            lik = np.array([likelihood.get(label, 0.0) for label in labels])
            post = post * dense_term(cpt, lik)
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
    """Every label's membership, zeros included, from the partition's domain
    and overlaps alone: x is clamped to the domain; label i rises linearly
    across overlap i - 1 and falls linearly across overlap i."""
    lo_dom, hi_dom = partition.domain
    x = min(max(x, lo_dom), hi_dom)

    def rise(lo, hi):
        return 0.0 if x <= lo else 1.0 if x >= hi else (x - lo) / (hi - lo)

    overlaps = partition.overlaps
    weights = {}
    for i, label in enumerate(partition.labels):
        up = 1.0 if i == 0 else rise(*overlaps[i - 1])
        down = 1.0 if i == len(overlaps) else 1.0 - rise(*overlaps[i])
        weights[label] = min(up, down)
    return weights


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
        comes in the order constraint, behaviour, performance, effort. The
        session fuses only a second whose evidence differs from the one
        before; every second's logged posterior is the oracle's rounded."""
        calls, evidences = [], []
        step = microworld.Monitor.step

        def stepped(self, *args):
            out = step(self, *args)
            evidences.append(out.evidence)
            return out

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
        monkeypatch.setattr(microworld.Monitor, "step", stepped)
        config = microworld.ScenarioConfig(operator=operator, seed=7, dfa=dfa, duration_s=1200)
        result = microworld.run_scenario(config)
        changed = [i == 0 or list(e.items()) != list(evidences[i - 1].items())
                   for i, e in enumerate(evidences)]
        assert len(calls) == sum(changed) < 1200
        ticks = [r for r in result.records if r["record"] == "tick"]
        assert [r["level"] for r in ticks] == [
            _oracle_mwl_level(r["posterior"]) for r in ticks]
        net = MwlNetwork.default()
        assert len(ticks) == len(evidences) == 1200
        for r, evidence in zip(ticks, evidences):
            assert r["posterior"] == [round(float(p), 9) for p in _oracle_posterior(net, evidence)]


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
        assert _oracle_fuzzify(5e-324, part) == {"a": 1.0, "b": 0.0}
        lo, hi = -2.434454589115478, -0.7838273344621424
        part = FuzzyPartition("v", ("a", "b"), (-5.0, 5.0), ((lo, hi),))
        x = math.nextafter(hi, -math.inf)
        assert fuzzify(x, part) == {"b": 1.0}
        assert _oracle_fuzzify(x, part) == {"a": 0.0, "b": 1.0}

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
