"""Suite-wide test settings.

Hypothesis runs without its per-example deadline: the suite makes no
wall-time assertions, and a deadline would fail an example on a slow host
rather than on a wrong result.
"""

from hypothesis import settings

settings.register_profile("edcurve", deadline=None)
settings.load_profile("edcurve")
