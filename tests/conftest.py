"""Test-session settings shared by every test module.

The hypothesis profile prints a failing example's ``@reproduce_failure``
blob, so an unseeded property failure can be replayed exactly.
"""

from hypothesis import settings

settings.register_profile("mixdisc", print_blob=True)
settings.load_profile("mixdisc")
