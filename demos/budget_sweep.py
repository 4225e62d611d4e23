"""How the mixed-set sweep works, threshold by threshold.

Every distinct spike cost is a candidate budget alpha. A budget's solve is a
spike-capped shortest path, scored as path cost + worst admitted spike. This
prints that curve for a small plant by solving every budget, then compares
the exact optimum with the grid approximations and their guarantees. The
solvers themselves walk the budgets down in a chain: after a solve at alpha
whose path has max spike S they solve again just below S, keeping the new
path while its cost ties, so the settled path covers every budget in
[S, alpha]; the chain stops once no smaller budget can beat the best score
so far, and each solver reports how many restricted solves it ran.
"""

import numpy as np

from mgtdispatch import (
    Forecast,
    bias_spike_costs,
    build_graph,
    cooldown_example,
    flat_tariff,
    mixed_set,
    shortest_path_restricted,
    solve_mixed_additive,
    solve_mixed_exact,
    solve_mixed_multiplicative,
)

model = cooldown_example()
graph = build_graph(model, 9)
tariff = flat_tariff(8, model.step_seconds, 0.5, 0.0, 0.1)

rng = np.random.default_rng(15)
mu_p = rng.uniform(12.0, 22.0, 8)
sigma_p = rng.uniform(0.5, 4.0, 8)
forecast = Forecast(mu_p, rng.uniform(15.0, 25.0, 8), sigma_p, rng.uniform(0.0, 2.0, 8))
mset = mixed_set(forecast, alpha1=1.0, alpha2=1.5)

costs = bias_spike_costs(graph, mset, tariff)
thresholds = np.unique(np.append(costs.finite_spike_values(), 0.0))
print(f"{thresholds.size} distinct spike budgets")
# inf rows are budgets too small to cap the exposure: some time step has no
# edge whose spike cost fits under alpha, so no plan qualifies
print(f"{'alpha':>8} {'path cost':>10} {'aux':>8} {'score':>10}")
for a in thresholds:
    r = shortest_path_restricted(graph, costs, float(a))
    score = r.total + r.aux_max
    print(f"{a:8.3f} {r.total:10.3f} {r.aux_max:8.3f} {score:10.3f}")

exact = solve_mixed_exact(graph, mset, tariff)
print(f"\nexact optimum {exact.worst_case_cost:.4f} at alpha={exact.threshold:.3f} "
      f"({exact.thresholds_evaluated} restricted solves for {exact.thresholds_candidates} candidate budgets)")
print(f"worst scenario: {exact.worst_scenario}")
print("(on a plant this small every grid below lands on the same optimum;")
print(" the eps / mu guarantees are what the approximations promise at scale)")

for eps in (0.5, 0.1):
    r = solve_mixed_additive(graph, mset, tariff, epsilon=eps)
    print(f"additive eps={eps}: {r.worst_case_cost:.4f} (guarantee <= exact + {eps}, "
          f"{r.thresholds_evaluated} restricted solves for {r.thresholds_candidates} candidate budgets)")
r = solve_mixed_additive(graph, mset, tariff, grid_n=5)
print(f"additive grid_n=5: {r.worst_case_cost:.4f} "
      f"({r.thresholds_evaluated} restricted solves for {r.thresholds_candidates} candidate budgets)")
for mu in (0.5, 0.1):
    r = solve_mixed_multiplicative(graph, mset, tariff, mu=mu)
    print(f"multiplicative mu={mu}: {r.worst_case_cost:.4f} (guarantee <= (1+{mu}) * exact, "
          f"{r.thresholds_evaluated} restricted solves for {r.thresholds_candidates} candidate budgets)")
