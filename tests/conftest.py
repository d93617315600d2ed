import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it
    pass
else:
    # derandomized and database-free, so every run draws the same examples
    settings.register_profile(
        "tverlab", max_examples=60, deadline=None, derandomize=True, database=None
    )
    settings.load_profile("tverlab")
