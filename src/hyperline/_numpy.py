"""numpy, imported on first use.

Each module of the package binds `np` to this module, not to numpy. The
first read of an attribute, such as `np.zeros`, imports numpy, stores that
attribute here and returns it, so later reads are plain module lookups. A
process that never builds a matrix (`generate`, `info`, `power` without
`--spectrum`, a parse error, `--help`) never imports numpy.
"""


def __getattr__(name: str):
    import numpy

    value = getattr(numpy, name)
    globals()[name] = value
    return value
