import sys

sys.path.insert(0, "tests")

try:
    from hypothesis import settings
except ImportError:  # the tests that need hypothesis fail to collect on their own
    pass
else:
    # A larger budget for the property tests that set no max_examples of
    # their own: pytest --hypothesis-profile=ci
    settings.register_profile("ci", max_examples=500, deadline=None)
