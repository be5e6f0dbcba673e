"""
Near-duplicate detection with find_overlaps
===========================================

Cross-dataset contamination check: each image is averaged over its
channels and resampled to a 32x32 comparison square, and a pair scores the
Pearson correlation of those two forms. Exact copies score exactly 1.0; an
affine intensity change (a positive scale plus an offset) does not move the
score; an unrelated image stays far below any sane threshold. Only scores
at or above the threshold, which lies in (0, 1], are reported, so a negated
copy (score -1) never is.
"""

import numpy as np

from hiercurric import dataprep as dp


def manifest(prefix, n):
    return dp.DatasetManifest(tuple(
        dp.Sample(f"{prefix}{i:02d}", f"{prefix}{i:02d}", "leaf") for i in range(n)))


rng = np.random.default_rng(0)
a = rng.random((3, 16, 16))
others = {"exact copy a": a.copy(), "affine copy 3a + 0.2": 3 * a + 0.2,
          "negated copy 1 - a": 1 - a, "unrelated image": rng.random((3, 16, 16))}

# a threshold just above 0 reports every positive score
matches, _ = dp.find_overlaps(manifest("a", 1), manifest("b", len(others)), 1e-12,
                              a[None], np.stack(list(others.values())))
scores = {id_b: score for _, id_b, score in matches}
for i, name in enumerate(others):
    print(f"a vs {name:22s} {scores.get(f'b{i:02d}', 'not reported')}")

# two disjoint noise sets with one exact copy planted across them
images_a = np.stack([rng.random((3, 32, 32)) for _ in range(25)])
images_b = np.stack([rng.random((3, 32, 32)) for _ in range(25)])
images_b[7] = images_a[3].copy()
matches, filtered = dp.find_overlaps(manifest("a", 25), manifest("b", 25),
                                     threshold=0.99, images_a=images_a,
                                     images_b=images_b)
print(f"\noverlap pairs at threshold 0.99: {matches}")
print(f"set a after removal: {len(filtered)} of 25 samples")
