"""Basic-level-first curriculum training toolkit for convolutional classifiers.

Train a classifier on coarse (basic-level) categories first, transplant the
trained output weights onto the fine-grained (subordinate) task, continue
training, and measure what the curriculum buys you against matched controls,
all at a desk scale that runs in minutes on a CPU.
"""

__version__ = "0.1.0"
