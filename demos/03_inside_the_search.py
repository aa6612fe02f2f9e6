"""What one rule-search run looks like from the inside.

The miner's inner loop has two stages: a prototype network summarizes each
class, then a binary particle swarm — seeded from those prototypes and from
the best one-condition rule — searches for the single best rule for one
class. This script runs the stages by hand so their intermediate state can be
inspected.
"""

import numpy as np

from rulemine import (
    LvqConfig,
    PsoConfig,
    encode,
    evolve,
    fit_network,
    generate,
    render_rule,
    seed_swarm,
)
from rulemine.rules import match_mask

data = encode(generate("fragmented", rows=800, seed=4).to_raw())
labels = data.schema.class_labels
print(f"{len(data)} rows, {data.dimension} encoded columns, classes {labels}")

# stage 1: prototypes. Centroids per class are allocated proportionally.
network = fit_network(data, LvqConfig(centroid_count=12, max_epochs=30, seed=4))
print(f"\nfitted {len(network.positions)} centroids:")
for c, count, deviation in zip(
    network.class_indices, network.represented_counts, network.deviations
):
    print(f"  class {labels[c]:8s} represents {count:4d} rows, "
          f"mean deviation {float(np.mean(deviation)):.3f}")

# stage 2: the swarm hunts a rule for the rarer class
target = 1
config = PsoConfig(swarm_size=30, max_iterations=150, stagnation_limit=25, seed=4)
swarm = seed_swarm(network, target, 2, data, config)
print(f"\nswarm of {len(swarm.position)} particles seeded for class {labels[target]!r}")
print(f"warm start: the best of {swarm.warm_start_candidates} one-condition rules "
      f"holds the last particle, fitness {swarm.best_fitness[-1]:.4f}")
print(f"initial best fitness: {swarm.trace[-1]:.4f}")

best_rule, stop_reason = evolve(swarm, config)  # scores against the rows it was seeded on
trace = swarm.trace
print(f"searched {len(trace) - 1} iterations; best fitness {trace[-1]:.4f}")
print(f"the search stopped on {stop_reason}")

# the trace is monotone: the global best can only improve
marks = [trace[0]] + [t for prev, t in zip(trace, trace[1:]) if t > prev]
print(f"improvements along the way: {', '.join(f'{t:.4f}' for t in marks)}")

print(f"\nbest rule found: {render_rule(best_rule, data.schema, data.numeric_ranges)}")
# support and confidence are counted on the rule's match mask, as the miner counts them
matched = match_mask(best_rule.antecedent, data)
correct = int(np.count_nonzero(data.y[matched] == best_rule.class_index))
hits = int(np.count_nonzero(matched))
support, confidence = correct / len(data), (correct / hits if hits else 0.0)
print(f"the decoded rule's support {support:.4f}, confidence {confidence:.4f}")
