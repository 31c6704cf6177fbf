"""Verify and refine natural-language explanations with a theorem prover.

The package turns an entailment problem (premise, hypothesis, and an
explanation given as simple sentences) into a first-order theory,
checks it with a prover backend, and iteratively rewrites the
explanation from prover feedback until the hypothesis is proved or the
iteration budget runs out.

The package re-exports nothing: import each name from the module that
defines it.
"""

__version__ = "0.1.0"
