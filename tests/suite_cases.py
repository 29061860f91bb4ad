"""Drain a ``teamcheck.verify`` suite, for tests that look at its cases together."""


def collect(suite):
    """Every case ``suite`` yields, in order, and the metadata it returns."""
    cases = []
    while True:
        try:
            cases.append(next(suite))
        except StopIteration as end:
            return cases, end.value
