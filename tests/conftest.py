"""Load every vibropol module before the tests run.  Hypothesis draws from
the constants of every loaded local module, so a derandomized test then
draws the same examples alone as in the full suite, where test_cli loads
vibropol.cli and vibropol.io."""

import vibropol.cli  # noqa: F401
