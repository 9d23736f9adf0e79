"""Dual-flow convolutional-recurrent target-area segmentation, from scratch.

A self-contained numpy stack: a gradient tape with hand-written 2D/3D
convolution kernels, a single-gate convolutional recurrent cell, the
dual-flow segmentation network it powers, colour-space conversions, losses
and metrics, handcrafted thresholding baselines, a synthetic dataset
generator, and a deterministic training engine. ``dflow.cli`` exposes all of
it as subcommands.

The package exports nothing itself: import each name from its module, for
example ``from dflow import network, training``, where the module's
``__all__`` lists its public names.
"""
