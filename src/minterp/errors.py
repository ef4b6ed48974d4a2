"""Exception types shared across the library."""


class MinterpError(Exception):
    """Base class for all library-specific failures."""


class SingularSystemError(MinterpError):
    """A linear system is numerically singular at the requested cutoff.

    Carries the observed smallest singular value (or eigenvalue) and the
    cutoff it failed to clear, so callers can see the gap.
    """

    def __init__(self, message, smallest, cutoff):
        super().__init__(f"{message} (smallest={smallest:.6e}, cutoff={cutoff:.6e})")
        self.smallest = float(smallest)
        self.cutoff = float(cutoff)


class UnderParametrizedError(MinterpError):
    """An interpolation problem has fewer parameters than constraints."""

    def __init__(self, m, n):
        super().__init__(f"need at least as many features as constraints: m={m} < n={n}")
        self.m = m
        self.n = n


class ConcentrationFailureError(MinterpError):
    """Feature resampling never reached the required eigenvalue floor.

    ``best_lambda`` is the largest smallest-eigenvalue achieved over all
    resampling attempts of the width-``m`` fit to ``n`` samples.
    """

    def __init__(self, target, best_lambda, attempts, m, n):
        super().__init__(
            f"smallest eigenvalue never reached {target / 2:.6e} "
            f"(best {best_lambda:.6e} over {attempts} attempts; m={m}, n={n})"
        )
        self.target = float(target)
        self.best_lambda = float(best_lambda)
        self.attempts, self.m, self.n = attempts, m, n

