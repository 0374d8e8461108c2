"""Empty placeholder for the removed crypto-backend layer.

The big-integer primitives live in :mod:`repro.mathutils.modular` and every
caller uses them directly.  ``perfbench/layertrace.py`` imports each package
in its ``LAYERS`` tuple, ``backends`` among them, so this package stays,
empty, until that tuple drops it.
"""

__all__ = []
