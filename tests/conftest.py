import os

# knob overrides from the ambient environment would silently change
# tolerances mid-suite; tests always start from the named profiles
for _key in list(os.environ):
    if _key.startswith("NORMALOID_"):
        del os.environ[_key]

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci",
        derandomize=True,
        max_examples=50,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    settings.load_profile("ci")
except ImportError:
    pass

