"""Reference code that several test modules share and that no code in
the package calls."""

from qhvb.scalars import ONE, NoSolution, Span
from qhvb import uea


def pairs(t):
    """The scalars.Tensor t as a list of (left basis element, right leg)
    pairs, grouped by left key."""
    grouped = {}
    for (l, r), s in t.terms.items():
        grouped.setdefault(l, {})[r] = s
    return [(t.leg({l: ONE}), t.leg(rs)) for l, rs in grouped.items()]


def invariant_span(elements):
    """The Span of a list of CoeffElements, such as homspace.invariants."""
    return Span([f.terms for f in elements])


def is_invariant(algebra, f):
    """Does f satisfy x o f = eps(x) f for the Cartan generators k, k^-1?"""
    for x in (uea.K, uea.K_INV):
        if algebra.circle(x, f) != f.scale(uea.counit(x)):
            return False
    return True


def coordinates(span, f):
    """Coordinates of the CoeffElement f in the span, or None when f is
    outside it."""
    try:
        return span.coordinates(f.terms)
    except NoSolution:
        return None


def contains(span, f):
    """Membership of a CoeffElement in the span."""
    return coordinates(span, f) is not None
