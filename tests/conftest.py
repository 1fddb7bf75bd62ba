from hypothesis import settings

# Draw the same examples on every run, so two checkouts are tested alike.
settings.register_profile("fracfp", derandomize=True)
settings.load_profile("fracfp")
