"""Cell reads on an ``ExperimentResult``'s rows, for the table tests."""


def column(result, name):
    """Every row's ``name`` cell, in row order."""
    return [row[name] for row in result.rows]


def row(result, key_column, key):
    """The first row whose ``key_column`` cell equals ``key``."""
    return next(row for row in result.rows if row[key_column] == key)
