"""Privacy-aware data cleaning as a service.

A provider prices and answers generalized value requests while preserving
(X,Y,L)-anonymity over its curated relation; a client repairs FD violations
in its dirty relation by purchasing possibly generalized values under a
budget.
"""

__version__ = "0.1.0"
