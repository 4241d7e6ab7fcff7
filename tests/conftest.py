# Makes the sibling helpers module importable from every test file.
from hypothesis import settings

# Property tests draw the same examples on every run.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
