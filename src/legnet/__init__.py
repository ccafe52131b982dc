"""Lesion-aware edge-based graph network toolkit.

Predicts a scalar language-ability score from lesioned functional
connectivity matrices. Ships the model and baselines with their loss,
gradients and checkpoints, a minimal reverse-mode tensor engine, and a
synthetic-lesion cohort generator.
"""

__version__ = "0.1.0"
