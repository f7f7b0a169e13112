"""Speaker-attributed non-autoregressive speech recognition at desk scale.

A float64 autodiff engine, transformer blocks, an integrate-and-fire length
predictor, a cosine-attention speaker decoder with inventory augmentation,
serialized multi-speaker targets, composite training losses, scoring, and a
latency benchmark against a greedy autoregressive twin, all exercised on
synthetic multi-speaker sessions.
"""

__version__ = "0.1.0"
