"""The march's uniform plan, the oracle of its panels.

``march.march`` solves every span it can on panels of Chebyshev points and
keeps its uniform plan of Picard chunks (``_plan``, ``_picard``) for the
candidates its split leaves unresolved. The tests reach that plan on a
whole span by one route: a judge whose verdicts are all 0, so that
``_segments`` hands every candidate to the uniform plan.
"""

from crossing_kit import march


def march_uniformly(monkeypatch):
    """Make ``march.march`` take the uniform plan on every span while
    ``monkeypatch`` (a pytest MonkeyPatch, or one of its contexts) holds."""
    judge = march._judge

    def uniform(*args):
        verdict, data = judge(*args)
        return 0 * verdict, data

    monkeypatch.setattr(march, "_judge", uniform)
