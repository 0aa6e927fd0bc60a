from hypothesis import settings

# A larger example budget for the Hypothesis tests, for runs that take the
# time: pytest --hypothesis-profile=thorough
settings.register_profile("thorough", max_examples=2000)
