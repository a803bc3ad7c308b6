"""Positive fixture: a key closure bound to a local name inside a
``# repro: hot`` body costs the sort the same closure call per element
as an inline ``key=lambda``."""


# repro: hot
def rank(views: dict) -> list:
    sort_key = lambda kv: (-kv[1], str(kv[0]))  # noqa: E731
    return sorted(views.items(), key=sort_key)
