"""The README quickstart's fusion and allocation lines, run with numpy blocked.

Set-up (`import oft`, the default network, the default allocation model)
and these queries load no numpy, so they must run when every import of
numpy fails. Run as a script, this file blocks numpy and prints the results
as JSON: the posterior's float bits, the level, and the allocation's couples
and cost bits. `tests/test_package.py` compares them with the same lines run
in-process with numpy loaded; CI runs the script against an installed copy
of the package, from outside the source tree:

    python tests/setup_without_numpy.py
"""

import json
import sys


def quickstart() -> dict:
    from oft import MwlNetwork, default_bike_model, fuzzify, mwl_level, posterior

    net = MwlNetwork.default()
    post = posterior(net, {"performance": fuzzify(0.45, net.partitions["performance"])})
    solution = default_bike_model().solve(["S1", "S4", "S6"], "rider_load")
    return {"posterior": [p.hex() for p in post], "level": mwl_level(post),
            "couples": list(solution.couples), "cost": solution.cost.hex()}


if __name__ == "__main__":
    sys.modules["numpy"] = None  # every `import numpy` now raises ImportError
    print(json.dumps(quickstart()))
