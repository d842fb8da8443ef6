"""First-order and regular list functions over nested-list types.

The package has four layers: a typed combinator calculus with a reference
evaluator (``types``, ``terms``, ``stdlib``, ``syntax``), factorisation
forests and the compilation of aperiodic rational functions into bounded
pipelines (``algebra``, ``rational``), copyless register updates and
streaming transducers (``registers``), and first-order transductions over
parse-tree encodings (``logic``).  ``samples`` holds shared example objects,
``fileio`` the file formats, and ``cli`` the command-line front end.  Names
are reached through their modules, as in ``from listfn.terms import eval_term``.
"""

__version__ = "0.1.0"
