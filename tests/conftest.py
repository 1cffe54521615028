"""Imports lcodr before any test module imports numpy.

lcodr loads numpy with one OpenBLAS thread (lcodr/__init__.py); a test
module that imported numpy first would start OpenBLAS's worker threads. The
CSV loaders parse a large file in two processes only in a process that runs
one thread, so this keeps that path under test.
"""

import lcodr  # noqa: F401
