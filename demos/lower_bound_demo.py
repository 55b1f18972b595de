"""Certify that some unions of Euclidean sides resist low distortion.

Samples a random split of the complete bipartite graph K_{n,n}, measures
its spectral sandwich parameter delta, and builds the 1/2/3-distance
space whose sides are regular simplices (each side embeds isometrically)
yet whose union needs distortion at least 3/(1+delta)^2.  Two concrete
embeddings are then measured against the certified bound.
"""

import numpy as np

from metric_union import (build_123_metric, certified_lower_bound,
                          distortion_of, embed_union, mds_best_effort,
                          mds_isometric_embed, ratio_check, sample_split,
                          validate_metric)

n = 64
split = sample_split(n, seed=1)
print(f"K_{{{n},{n}}} split: |e1| = {np.count_nonzero(split.mask)}, "
      f"|e2| = {np.count_nonzero(~split.mask)} "
      f"(accepted on attempt {split.attempts})")
print(f"measured delta* = {split.delta_star:.6f}")

bound = certified_lower_bound(split)
print(f"certified lower bound: 3/(1+delta*)^2 = {bound:.6f}")
print("every Euclidean embedding of the space below must distort by that "
      "much;\nthe sides alone embed with distortion 1")

X, P = build_123_metric(split)
print(f"\n1/2/3 space: {X.n} points "
      f"(distance 2 within sides, 1 or 3 across)")

# embedding 1: the constructive embedding from this package, fed exact
# coordinates for each simplex side
phi_a = mds_isometric_embed(validate_metric(X.sub(P.idx_a)))
phi_b = mds_isometric_embed(validate_metric(X.sub(P.idx_b)))
emb = embed_union(X, P, phi_a, phi_b)
d1 = emb.report.distortion
print(f"\nconstructive embedding: distortion {d1:.4f} >= {bound:.4f}: "
      f"{d1 >= bound - 1e-9}")

# embedding 2: best-effort MDS of the whole space (clips the negative
# spectrum the union necessarily produces)
img = mds_best_effort(X)
d2 = distortion_of(X, img).distortion
print(f"best-effort MDS:        distortion {d2:.4f} >= {bound:.4f}: "
      f"{d2 >= bound - 1e-9}")

r1, r2 = ratio_check(split, img)
lo, hi = (1 + split.delta_star) ** -2, (1 + split.delta_star) ** 2
print(f"\nenergy ratios of the MDS image: e1 {r1:.4f}, e2 {r2:.4f} "
      f"(window [{lo:.4f}, {hi:.4f}])")
