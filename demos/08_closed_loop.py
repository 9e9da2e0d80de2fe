"""
Closing the loop in the surveillance microworld
===============================================

A degrading operator works a 20-minute surveillance shift: calm first half,
busy second half. We run the same shift twice per seed, once with the
adaptive assistance switched off and once with it on, and watch what the
monitoring stack does to prescription compliance. Then we pull the full
end-to-end report for one run to see how well the fused workload level
tracked the ground truth it never gets to see.
"""

from oft.microworld import ScenarioConfig, compare_compliance, run_scenario
from oft.pipeline import endtoend_report

BASE = ScenarioConfig(operator="degrading-overload", seed=0)

# step 1: assistance off vs on, a handful of seeds ---------------------------

seeds = range(8)
paired = compare_compliance(seeds, BASE)
print("seed   off     on    gain")
for seed, off, on in zip(paired["seeds"], paired["compliance_off"], paired["compliance_on"]):
    print(f"{seed:4d}  {off:.3f}  {on:.3f}  {on - off:+.3f}")
print(f"median {paired['median_off']:.3f} -> {paired['median_on']:.3f}")
print()

# step 2: when and what the adaptation engaged -------------------------------

run = run_scenario(ScenarioConfig(operator="degrading-overload", seed=3, dfa=True))
commands = [r for r in run.records if r["record"] == "assistance"]
switch_ons = [a for a in commands if a["active"]]
print(f"seed 3 issued {len(commands)} assistance commands, "
      f"{len(switch_ons)} of them switch-ons:")
for a in switch_ons:
    print(f"  t={a['t']:4d}s  level {a['level']}  {a['directive']:24s} -> {a['task']}")
print()

# every switch-on sits at fused level 4 or 5: the loop only intervenes once
# the operator is visibly saturated

# step 3: did the inferred level track reality? -------------------------------

report = endtoend_report(ScenarioConfig(operator="degrading-overload", seed=3))
print("end-to-end, assistance off, seed 3:")
print(f"  rank correlation with scripted load: {report['spearman_level_vs_latent']:.3f}")
print(f"  rank correlation with self-ratings:  {report['spearman_level_vs_isa']:.3f}")
print(f"  compliance: {report['compliance']:.3f}")
misses = report["summary"]["misses"]
print(f"  prescriptions missed: {sum(misses.values())} "
      f"(worst offender: {max(misses, key=misses.get)})")
