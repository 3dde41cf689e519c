"""Desk-scale lab for long-tailed generalized category discovery on embeddings."""

__version__ = "0.1.0"
