"""The test suite writes no bytecode, in this process or its children.

A ``src/gracetree/__pycache__`` left behind by a test run would turn a
later "fresh" import, such as perfbench's ``setup_s``, into a cached
one.  Child interpreters inherit the setting through the environment.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
