import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# ci with 750 examples a test instead of 40: a CI step runs the JSON reader's differential tests under it
settings.register_profile("deep", settings.get_profile("ci"), max_examples=750)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
