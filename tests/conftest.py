"""Property tests draw the same examples on every run and write no database.

Hypothesis still caches what it mines from the source under its storage
directory; that directory is a temporary one, removed when the session ends,
so a test run leaves no `.hypothesis/` in the tree.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="padroot-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)
