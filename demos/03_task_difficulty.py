"""
From raw demand counts to a difficulty grade
============================================

Difficulty is read off three observables: how many threats are active, how
many requests are pending, and how spread out the threats are over the map
(spatial entropy over an 8x8 grid). Each is cut into low/medium/high and a
small rule table grades the combination td1 (routine) to td3 (saturated).
"""

from oft.taskload import ConstraintFrame, discretize, spatial_entropy, task_difficulty

# a tight cluster of threats vs the same number scattered widely
cluster = [(0.51, 0.52), (0.52, 0.53), (0.53, 0.51), (0.52, 0.52)]
spread = [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9)]
print(f"entropy, clustered: {spatial_entropy(cluster):.3f} nats")
print(f"entropy, scattered: {spatial_entropy(spread):.3f} nats")
print()

scenes = [
    ("quiet patrol", ConstraintFrame(t=0, n1=2, n2=1, entropy=0.2)),
    ("steady traffic", ConstraintFrame(t=1, n1=8, n2=2, entropy=0.8)),
    ("message backlog", ConstraintFrame(t=2, n1=4, n2=5, entropy=0.4)),
    ("saturated sector", ConstraintFrame(t=3, n1=13, n2=6, entropy=1.3)),
]

for name, frame in scenes:
    grades = discretize(frame)
    td = task_difficulty(grades)
    levels = f"{grades.n1_level}/{grades.n2_level}/{grades.entropy_level}"
    print(f"{name:18s} n1={frame.n1:2d} n2={frame.n2}  entropy={frame.entropy:.1f}"
          f"  -> {levels:18s} -> td{td}")
