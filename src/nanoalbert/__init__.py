"""Desk-scale shared-block transformer: masked-LM + sentence-order
pretraining and BIO-tag entity recognition, on plain numpy.

This package imports nothing, so a command that needs no numpy
(build-vocab) never loads it; import submodules directly
(``from nanoalbert import model``).
"""

__version__ = "0.1.0"
