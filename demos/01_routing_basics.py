#!/usr/bin/env python3
"""A first look at one routing layer.

Builds a handful of input capsules by hand, routes them to three output
capsules, and walks through what the loop produced: assignment
probabilities, used/ignored shares, and the fitted Gaussian models.
"""

import numpy as np

from capsem import CapsuleBatch, RoutingConfig, init_params, route
from capsem.analysis import trace_summary
from capsem.tensor import expit

rng = np.random.default_rng(0)

# Six input capsules, each a 2x2 pose matrix plus a score. Two groups of
# three agree with each other; scores gate the third group half-off.
cfg = RoutingConfig(n_out=3, n_in=6, d_cov=2, d_in=2, d_out=2, n_iters=3)
params = init_params(cfg, seed=42)
params.weights += rng.normal(0, 0.4, size=params.weights.shape)
params.beta_use += 0.8  # reward using data so output scores move

group_a = np.array([[1.0, 0.2], [0.0, 1.0]])
group_b = np.array([[-0.5, 1.0], [1.0, 0.3]])
poses = np.stack([group_a + 0.02 * rng.normal(size=(2, 2)) for _ in range(3)]
                 + [group_b + 0.02 * rng.normal(size=(2, 2))
                    for _ in range(3)])
scores = np.array([3.0, 3.0, 3.0, 0.0, 0.0, 0.0])

caps = CapsuleBatch(scores[None], poses[None])
out, trace = route(params, caps, cfg, want_trace=True)

print("output scores:", np.round(out.scores.data[0], 3))
print("output activations:", np.round(expit(out.scores.data[0]), 3))
print("output variances (mean per capsule):",
      np.round(out.variances.data[0].mean(axis=(1, 2)), 4))

print("\nhow the assignments sharpened over the loop:")
for k, summary in enumerate(trace_summary(trace)):
    print(f"  iteration {k}: mean assignment entropy "
          f"{summary.probs_entropy.mean():.3f} nats "
          f"(uniform would be {np.log(cfg.n_out):.3f})")

last = trace.iterations[-1]
print("\nfinal assignment probabilities (inputs x outputs):")
print(np.round(last.probs[0], 3))
print("\nused share of each input per output (gated by the input score):")
print(np.round(last.used[0], 3))
print("\nevery input's mass is fully accounted for "
      "(used + ignored + gated-off = 1):")
total = last.used[0] + last.ignored[0] + (1 - expit(scores))[:, None]
print(np.round(total, 6))
