"""Replay the shipped four-season pack: every strategy against realized demand.

Same computation as `mgtdispatch compare --pack data/four_season`, done
through the library API so the intermediate objects are visible.
"""

import os

from mgtdispatch import (
    ComparisonReport,
    compare_day,
    load_demand,
    load_history,
    load_model,
    load_pack_manifest,
    load_tariff,
)

pack = os.path.join(os.path.dirname(__file__), "..", "data", "four_season")
manifest = load_pack_manifest(pack)
model = load_model(os.path.join(pack, manifest["model"]))

cases = []
for season in manifest["seasons"]:
    sdir = os.path.join(pack, season)
    tariff = load_tariff(os.path.join(sdir, "tariff.json"))
    history = load_history(os.path.join(sdir, "history"))
    realized = load_demand(os.path.join(sdir, "realized.csv"))
    case = compare_day(
        model, tariff, history, realized,
        alpha=manifest["alpha"],
        alpha1=manifest["alpha1"],
        alpha2=manifest["alpha2"],
        name=season,
    )
    cases.append(case)
    mixed = case.entry("mixed")
    print(f"{season}: mixed sweep solved {mixed.solution.thresholds_evaluated} of "
          f"{mixed.solution.thresholds_candidates} candidate budgets, "
          f"picked alpha={mixed.solution.threshold:.3f}")

report = ComparisonReport(cases=tuple(cases))
print()
print(report.render_table())

# reduction% reads: 100 means "as good as knowing the day in advance",
# 0 means "no better than trusting the forecast mean"
