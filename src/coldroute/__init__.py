"""coldroute: cold-start LLM routing from public model-card signals.

The package builds a heterogeneous evidence graph out of model cards
(families, descriptions, benchmark scores, benchmark domains, sampled
queries), turns each candidate model into a profile vector under a
four-way design space of aggregation strategies, routes queries against
those profiles with training-free or trained routers, and evaluates both
the fully cold-start protocol and frozen-router integration of brand-new
models.  Each name is imported from its module (``coldroute.graph``,
``coldroute.profiles``, ``coldroute.routers``, ...).
"""

__version__ = "0.1.0"
