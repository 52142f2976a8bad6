from hypothesis import settings

# The same examples on every run, and no per-example deadline: a slow
# machine must not turn a passing property red.
settings.register_profile("fvlogic", deadline=None, derandomize=True)
settings.load_profile("fvlogic")
