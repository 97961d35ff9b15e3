from hypothesis import settings

# no per-example deadline: the suite's hosts change speed by up to 1.7x, and
# a deadline would fail an example for the host's speed, not for the code
settings.register_profile("beamtrack", deadline=None)
settings.load_profile("beamtrack")
