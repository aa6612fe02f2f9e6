"""A fuller workflow on the credit-style profile.

The "credit3" generator plants three ground-truth approval rules and 5%
label noise in a 10-attribute applicant table. We hold out 30% for testing,
tune the miner toward few broad rules, persist the model, reload it, and
score individual applicants with an explanation of which rule fired.
"""

from pathlib import Path

from rulemine import (
    MinerConfig,
    ModelArtifact,
    PsoConfig,
    classify_dataset,
    encode,
    evaluate,
    generate,
    load_model,
    mine,
    render_rule,
    render_rule_list,
    save_model,
    stratified_split,
)

dataset = generate("credit3", rows=5000, seed=1)
data = encode(dataset.to_raw())
train, test = stratified_split(data, test_fraction=0.3, seed=1)
print(f"train {len(train)} / test {len(test)} rows, {data.dimension} encoded columns")

# a higher support floor and a bigger swarm trade runtime for broad rules
config = MinerConfig(
    seed=1,
    support_factor=0.45,
    min_confidence=0.85,
    max_attempts_per_class=3,
    pso=PsoConfig(swarm_size=60, max_iterations=400, stagnation_limit=60),
)
rule_list, _ = mine(train, config)

print("\nmined rule list:")
print(render_rule_list(rule_list, data.schema, data.numeric_ranges))

print("\nheld-out performance:")
result = evaluate(rule_list, test)
print(result.format_table())

# persist and reload: the artifact carries everything scoring needs
model_path = Path("credit_model.json")
artifact = ModelArtifact(
    schema=data.schema,
    numeric_ranges=data.numeric_ranges,
    rule_list=rule_list,
    miner_config=config,
)
save_model(artifact, model_path)
reloaded = load_model(model_path)
print(f"\nmodel round-tripped through {model_path}")

labels = reloaded.schema.class_labels
print("\nfirst five test applicants, with the rule that decided each:")
predicted, fired_rules = classify_dataset(reloaded.rule_list, test)
for class_index, fired in zip(predicted[:5], fired_rules[:5]):
    if fired == 0:
        why = "default class (no rule matched)"
    else:
        why = render_rule(reloaded.rule_list.rules[fired - 1],
                          reloaded.schema, reloaded.numeric_ranges)
    print(f"  -> {labels[class_index]:8s} via {why}")

model_path.unlink()
