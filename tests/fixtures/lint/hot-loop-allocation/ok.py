"""Negative fixture: the hot body precomputes tuple keys and reuses
buffers (delta.py's rank-key idiom); the same lambda sort is fine in
an unmarked helper, and a key naming a builtin, not a lambda, is fine
in a hot body."""


# repro: hot
def rank(decorated: list, out: list) -> list:
    decorated.sort()
    out.clear()
    for entry in decorated:
        out.append(entry)
    return out


def rank_cold(views: dict) -> list:
    return sorted(views.items(), key=lambda kv: (-kv[1], str(kv[0])))


# repro: hot
def rank_labels(groups: list) -> list:
    return sorted(groups, key=str)
