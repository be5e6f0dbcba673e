"""
Near-duplicate detection with normalized correlation
====================================================

Cross-dataset contamination check: images are graymapped, resampled to a
32x32 comparison square, and compared by Pearson correlation. Exact copies
score exactly 1.0; affine intensity changes do not move the score; pure
noise stays far below any sane threshold.
"""

import numpy as np

from hiercurric import dataprep as dp

rng = np.random.default_rng(0)
a = rng.random((3, 16, 16))
b = rng.random((3, 16, 16))

print(f"ncc(a, a)           = {dp.normalized_correlation(a, a)}")
print(f"ncc(a, 1 - a)       = {dp.normalized_correlation(a, 1 - a):.6f}")
print(f"ncc(a, b)           = {dp.normalized_correlation(a, b):.6f}")
print(f"ncc(a, 3a + 0.2)    = {dp.normalized_correlation(a, 3 * a + 0.2)}")

# two disjoint noise sets with one exact copy planted across them
images_a = np.stack([rng.random((3, 32, 32)) for _ in range(25)])
images_b = np.stack([rng.random((3, 32, 32)) for _ in range(25)])
images_b[7] = images_a[3].copy()
man_a = dp.DatasetManifest(tuple(dp.Sample(f"a{i:02d}", f"a{i:02d}", "leaf")
                                 for i in range(25)))
man_b = dp.DatasetManifest(tuple(dp.Sample(f"b{i:02d}", f"b{i:02d}", "leaf")
                                 for i in range(25)))

matches, filtered = dp.find_overlaps(man_a, man_b, threshold=0.99,
                                     images_a=images_a, images_b=images_b)
print(f"\noverlap pairs at threshold 0.99: {matches}")
print(f"set a after removal: {len(filtered)} of {len(man_a)} samples")
