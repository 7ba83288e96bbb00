"""Test package (unique module paths for pytest collection)."""


def column_lists(columns) -> tuple[list, ...]:
    """A ``BedColumns``' six columns as plain lists, whatever holds them.

    The parser hands arrays and the decoder lists; tests compare tables
    through this rather than through ``==`` (ambiguous on arrays).
    """
    return tuple(
        column.tolist() if hasattr(column, "tolist") else list(column) for column in columns
    )
