#!/usr/bin/env python3
"""Routing externally produced embeddings, and watching poses move.

First half: a stand-in for a frozen encoder emits per-token vectors with
a padding mask; a depth tag, a trained linear map with swish and layer
normalization, and a reshape turn them into capsules (the language-model
recipe). Second half: feed a trained constellation model a sequence of
rotated views of one sample and track the activated capsule's pose
vectors, writing the curves to CSV.
"""

import numpy as np

from capsem import CapsuleBatch, RoutingConfig, Tape, init_params, route
from capsem import tensor as T
from capsem.analysis import pose_trajectory_metrics, write_pose_metrics_csv
from capsem.data import (ConstellationSpec, gen_constellation,
                         ingest_embeddings, similarity_matrix)
from capsem.nn import (channel_embedding, init_channel_table, layer_norm,
                       linear)

rng = np.random.default_rng(0)

# --- embeddings in, capsules out -----------------------------------------
n_tokens, n_layers, width = 7, 3, 48
embeddings = rng.normal(size=(n_tokens * n_layers, width))
mask = np.ones(n_tokens * n_layers)
mask[-4:] = 0.0          # padding positions
mask[5] = 0.5            # a blended position, as mixing produces
depth_tag = np.repeat(np.arange(n_layers), n_tokens)

# the trainable front half: depth tag + linear + swish + layer norm
tape = Tape()
table = tape.leaf(init_channel_table(n_layers, width))
w = tape.leaf(rng.normal(0, width ** -0.5, size=(width, 16)))
b = tape.leaf(np.zeros(16))
gain, shift = tape.leaf(np.ones(16)), tape.leaf(np.zeros(16))

x = T.add(T.tensor(embeddings), channel_embedding(table, depth_tag))
features = layer_norm(T.swish(linear(x, w, b)), gain, shift)

caps = ingest_embeddings(features.data, mask, d_cov=1)
print(f"{embeddings.shape} embeddings -> {caps.n} capsules of shape "
      f"{T.asarray(caps.poses).shape[2:]}; scores span "
      f"[{T.asarray(caps.scores).min():+.0f}, {T.asarray(caps.scores).max():+.0f}]")

routing = RoutingConfig(n_out=6, d_cov=1, d_in=16, d_out=2, n_iters=3)
out = route(init_params(routing, seed=3), caps, routing)
print(f"routed to {out.scores.data.shape[1]} capsules of shape "
      f"{out.poses.data.shape[2:]}\n")

# --- pose trajectories under a controlled viewpoint sweep -----------------
spec = ConstellationSpec(jitter_std=0.0, n_distractors=0, seed=5)
scores, poses, label = next(gen_constellation(spec, 1))
cfg = RoutingConfig(n_out=spec.n_classes, d_cov=4, d_in=4, d_out=4,
                    n_iters=3, var_floor=1e-2)
params = init_params(cfg, seed=9)

trajectory = []
angles = np.linspace(0.0, np.pi, 12)
for phi in angles:
    rot = similarity_matrix(phi, 1.0, 0.0, 0.0)
    turned = poses.copy()
    turned[:, :3, :3] = rot @ poses[:, :3, :3]
    out = route(params, CapsuleBatch(scores[None], turned[None]), cfg)
    j = int(out.scores.data[0].argmax())
    trajectory.append(out.poses.data[0, j])

metrics = pose_trajectory_metrics(trajectory)
write_pose_metrics_csv("pose_trajectory.csv", metrics)
print("rotating the whole sample and tracking the winning capsule's "
      "pose vectors:")
print("  step  mean rel_dist  mean norm_ratio  mean cosine")
for t in (0, 3, 6, 11):
    print(f"  {t:>4}  {metrics.rel_dist[t].mean():13.3f}  "
          f"{metrics.norm_ratio[t].mean():15.3f}  "
          f"{metrics.cosine[t].mean():11.3f}")
print("full curves written to pose_trajectory.csv")
