"""Exception types shared across the library."""


class NumericalFailureError(RuntimeError):
    """A numerical routine produced non-finite values."""


class DegenerateStateError(NumericalFailureError):
    """Every column of a low-rank factor collapsed during orthonormalization.

    A numerical failure like any other: the CLI exits 3 on it, and
    ``rte compare`` reports the scheme as diverged.
    """


class OrthonormalityError(ValueError):
    """A basis violated its weighted-orthonormality precondition."""

    def __init__(self, factor, defect):
        super().__init__(
            f"{factor} is not orthonormal in its weighted inner product "
            f"(defect {defect:.3e})"
        )
        self.factor = factor
        self.defect = defect


class SizeCapError(ValueError):
    """A dense/reference computation exceeded its configured size cap."""


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""
