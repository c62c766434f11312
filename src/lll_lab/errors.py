"""The package's one exception type, in a module that imports nothing
from the package, so every layer can raise it."""


class LllError(Exception):
    """Engine-level contract violation (bad input, cap exceeded, ...)."""
