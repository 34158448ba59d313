"""Hypothesis profiles.

`soak` runs each property over many more cases than tier 1 does. It is
registered, not loaded: CI's soak job selects it with
`--hypothesis-profile=soak`.
"""

from hypothesis import settings

settings.register_profile("soak", max_examples=1000, deadline=None)
