"""Verified desk-scale computations around the pure virtual braid group
on three strands.

The package covers free-group words and substitutions, finitely
presented groups with consequence certificates, basis-conjugating
automorphisms, nilpotent quotients, the cohomology ring with its wedge
model, and the associated graded Lie ring.  ``pvb3 suite`` (or
``pvb3.suite.run_suite``) executes the ten-check verification battery
tying the pieces together.  The package root re-exports the words,
presentations and nilpotent quotients only, so that importing it does
not load the automorphism, cohomology, Lie and suite modules.
"""

from .fpres import (
    Presentation,
    SearchBounds,
    g3_presentation,
    is_consequence,
    pv3_new_generators,
    pv3_new_presentation,
    pv_presentation,
)
from .grammar import ParseError, parse_word
from .nq import nilpotent_quotient
from .word import Alphabet, GenMap, Word

__all__ = [
    "Alphabet",
    "GenMap",
    "ParseError",
    "Presentation",
    "SearchBounds",
    "Word",
    "g3_presentation",
    "is_consequence",
    "nilpotent_quotient",
    "parse_word",
    "pv3_new_generators",
    "pv3_new_presentation",
    "pv_presentation",
]
