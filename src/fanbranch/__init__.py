"""Branched covers of complete fans and their piecewise-linear functions.

Library layout:

* :mod:`fanbranch.fields` -- the one rule for each kind of input field.
* :mod:`fanbranch.exact_linalg` -- exact rational/integer linear algebra.
* :mod:`fanbranch.fan_core` -- fans as cone complexes in poset form.
* :mod:`fanbranch.cover_poset` -- branched covers as weighted posets.
* :mod:`fanbranch.monodromy` -- enumeration of maximal covers by permutation
  assignments on the dual graph.
* :mod:`fanbranch.pl_group` -- integral piecewise-linear functions on covers
  and triviality decisions.
* :mod:`fanbranch.klyachko` -- filtration data for toric vector bundles.
* :mod:`fanbranch.cli` -- the sweep engine and the entry point of the
  ``fanbranch`` command-line tool, whose subcommands are in
  :mod:`fanbranch.commands`.
"""

__version__ = "0.1.0"
