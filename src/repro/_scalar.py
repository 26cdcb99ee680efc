"""The array namespace a ``float`` satisfies (DESIGN.md §8).

Every formula the paper prints has one body, a module-level function
whose first parameter ``xp`` is the namespace it computes in: ``numpy``
when an engine evaluates it over arrays, this module when a per-ACK
controller or a scalar power model evaluates it for one path on the
standard library alone.  Only the numpy functions those bodies call are
mirrored here.
"""

import math

exp = math.exp
sqrt = math.sqrt
minimum = min
maximum = max
power = pow


def where(condition, a, b):
    return a if condition else b
