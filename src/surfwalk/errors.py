"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: parse errors exit 2,
invariant/assumption violations exit 3, non-convergence exits 4 and
enumeration budget overruns exit 5.
"""


class GraphError(ValueError):
    """A graph or rotation-system invariant is violated."""


class AssumptionError(ValueError):
    """An assumption on the coin, the inflow or a solver setting is violated."""


class ConvergenceError(RuntimeError):
    """The walk iteration did not reach the requested tolerance."""

    def __init__(self, message, residual=None, steps=None, rate=None):
        super().__init__(message)
        self.residual = residual
        self.steps = steps
        self.rate = rate


class BudgetError(RuntimeError):
    """A search would exceed its budget: the raw systems of an enumeration
    or the candidates of a partition-order search."""


class ParseError(ValueError):
    """A rotation-system file could not be parsed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"line {self.line}: {base}"
        return base
