"""Smallest possible end-to-end run.

Generates a two-column dataset whose classes are split by a single
threshold, mines a rule list for it, and prints what came out. Expect one
rule plus the default class and a perfect score — the point is to show the
shape of the API.
"""

from rulemine import MinerConfig, encode, evaluate, generate, mine, render_rule_list

dataset = generate("separable", rows=200, seed=7)
print(f"generated {len(dataset.rows)} rows; class labels: {dataset.schema.class_labels}")

# min-max scale numerics / dummy-code nominals into the unit hypercube
data = encode(dataset.to_raw())
print(f"encoded into {data.dimension} columns\n")

rule_list, report = mine(data, MinerConfig(seed=7))

print("mined rule list:")
print(render_rule_list(rule_list, data.schema, data.numeric_ranges))
print()
print(f"stopped because: {report.stop_reason}")
print(f"swarm runs used: {len(report.swarm_logs)}")
print()

print("scored against its own training data:")
print(evaluate(rule_list, data).format_table())
