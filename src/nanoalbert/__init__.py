"""Desk-scale shared-block transformer: masked-LM + sentence-order
pretraining and BIO-tag entity recognition, on plain numpy.

This package imports nothing, so the command-line front end can set
threading environment variables before numpy loads; import submodules
directly (``from nanoalbert import model``).
"""

__version__ = "0.1.0"
