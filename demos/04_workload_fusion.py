"""
Fusing four indicators into one workload level
==============================================

The workload estimate is a five-level posterior over a small star-shaped
network: task difficulty, regulation behaviour, performance, and effort
each vote through their conditional table. Evidence maps each variable to
its label weights. Continuous readings enter through overlapping fuzzy
bands, so a performance of 0.5 counts partly as "degraded" and partly as
"poor"; a known label is hard evidence, weight 1.
"""

from oft.fusion import MwlNetwork, fuzzify, mwl_level, posterior

net = MwlNetwork.default()

# fuzzify a few raw readings against the bundled performance partition
part = net.partitions["performance"]
for reading in (0.95, 0.60, 0.45, 0.20):
    weights = {k: round(v, 2) for k, v in fuzzify(reading, part).items()}
    print(f"performance {reading:.2f} -> {weights}")
print()


def show(title, evidence):
    post = posterior(net, evidence)
    bars = "  ".join(f"{k + 1}:{p:.2f}" for k, p in enumerate(post))
    print(f"{title:32s} level {mwl_level(post)}   [{bars}]")


show("calm baseline", {
    "constraint": {"td1": 1.0},
    "behaviour": {"none": 1.0},
    "performance": fuzzify(0.95, net.partitions["performance"]),
    "effort": fuzzify(-0.5, net.partitions["effort"]),
})

show("working hard, holding up", {
    "constraint": {"td2": 1.0},
    "behaviour": {"performance_oriented": 1.0},
    "performance": fuzzify(0.85, net.partitions["performance"]),
    "effort": fuzzify(1.6, net.partitions["effort"]),
})

show("shedding tasks under pressure", {
    "constraint": {"td3": 1.0},
    "behaviour": {"cost_oriented": 1.0},
    "performance": fuzzify(0.45, net.partitions["performance"]),
    "effort": fuzzify(2.4, net.partitions["effort"]),
})

# evidence can be partial: leaving a channel out just widens the posterior
show("difficulty alone (td3)", {"constraint": {"td3": 1.0}})
