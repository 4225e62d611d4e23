"""Walk through the smallest interesting plant: on/off with a 3-step cooldown.

Builds the time-expanded graph for a 5-layer horizon, dumps its edges, and
solves a nominal day where running the turbine is clearly worth it.
"""

import numpy as np

from mgtdispatch import (
    DemandProfile,
    build_graph,
    build_schedule,
    cooldown_example,
    dump_graph,
    flat_tariff,
    solve_nominal,
)

model = cooldown_example()
print("states:", model.states)
for tr in model.transitions:
    print(f"  {tr.from_state:8} --{tr.control}--> {tr.to_state}  "
          f"P={tr.power_kw} H={tr.heat_kw} op={tr.op_cost}")

graph = build_graph(model, horizon=5)
print(f"\n{graph.n_nodes} nodes, {graph.n_edges} edges "
      f"({graph.n_priced_steps} priced steps)")

dump_graph(graph, "cooldown_edges.txt")
print("edge dump written to cooldown_edges.txt in the working directory")

# 0.50/kWh to buy power, selling not allowed, 0.10/kWh for heat
tariff = flat_tariff(4, model.step_seconds, 0.5, None, 0.1)
demand = DemandProfile(np.full(4, 14.0), np.full(4, 20.0))

res = solve_nominal(graph, demand, tariff)
print(f"\nnominal cost {res.worst_case_cost}")
print("path:", " -> ".join(f"{name}@{t}" for t, name in res.path.nodes))

sched = build_schedule(graph, res.path, demand, tariff)
print("\n  t state   P_mgt P_util  step_cost")
for row in sched.rows:
    print(f"  {row.t} {row.state:7} {row.p_mgt_kw:5} {row.p_util_kw:6} "
          f"{row.step_cost:10.2f}")
print(f"total {sched.total_cost}")

# drop the demand below the turbine's 10 kW: with selling forbidden every
# generating edge prices to +inf and the solver keeps the machine off
low = DemandProfile(np.full(4, 5.0), np.full(4, 20.0))
res_low = solve_nominal(graph, low, tariff)
print("\nlow-demand path:",
      " -> ".join(f"{name}@{t}" for t, name in res_low.path.nodes))
