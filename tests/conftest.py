from hypothesis import settings

# fixed examples and no per-example deadline: property tests must give the
# same verdict on every run, however loaded the host is
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")
