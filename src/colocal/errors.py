"""Domain errors.

Every error raised by the library is a subclass of :class:`ColocalError`;
``err.name`` is the stable identifier that the CLI emits verbatim in its
error JSON, and ``err.details`` carries machine-readable context.
"""

from __future__ import annotations


class ColocalError(Exception):
    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    @property
    def name(self) -> str:
        return type(self).__name__

    def __str__(self) -> str:
        if self.details:
            extra = ", ".join(f"{k}={v!r}" for k, v in self.details.items())
            return f"{self.message} ({extra})"
        return self.message


# -- graph / state space ----------------------------------------------------

class NotSimple(ColocalError):
    """Edge set contains a self-loop or a duplicate edge."""


class NotSymmetric(ColocalError):
    """Some directed edge is missing its reverse."""


class NotConnected(ColocalError):
    """The site graph is not connected."""


class NotReversible(ColocalError):
    """Interaction fails the reversibility condition on some changed pair;
    details carry each such pair and where swap-then-phi twice takes it.
    Raised by the interaction reader and by every ``Form``."""


class SizeTooSmall(ColocalError):
    """Periodic lattice too small: wrap-around edges would not be simple."""


class SpaceTooLarge(ColocalError):
    """Configuration count exceeds the state cap."""


class EdgeOutsideSiteSet(ColocalError):
    """Transition edge has an endpoint outside the configuration's sites."""


class ActionLeavesWindow(ColocalError):
    """Group element maps a required site outside the represented window."""


class EmptySet(ColocalError):
    """Operation requires a nonempty site set."""


# -- measures / projections -------------------------------------------------

class NotSubset(ColocalError):
    """Expected a nested pair of site sets."""


class SiteSetMismatch(ColocalError):
    """Operands are defined over different site sets."""


class NonProductMeasure(ColocalError):
    """Operation requires a product measure."""


class TooManySubsets(ColocalError):
    """Site set exceeds the subset-enumeration cap."""


class NotOrdinary(ColocalError):
    """Measure fails the edge-compatibility identity needed to project forms."""


# -- forms ------------------------------------------------------------------

class MalformedForm(ColocalError):
    """Edge tables violate a structural form constraint."""


class InvalidPath(ColocalError):
    """Step sequence is not a chain of genuine transitions."""


class NotClosed(ColocalError):
    """Form has a cycle with nonzero integral; details carry the witness."""

    def __init__(self, message: str, witness=None, integral=None, **details):
        super().__init__(message, **details)
        self.witness = witness
        self.integral = integral


# -- invariant decomposition ------------------------------------------------

class WindowTooSmall(ColocalError):
    """Window cannot accommodate the requested shift or margin."""


class NotInvariant(ColocalError):
    """Form stencil is not consistent under the group translations."""


class ResidueNotConserved(ColocalError):
    """Shift residue of the potential is not a combination of conserved
    quantities; usually the window is too small or the interaction is not
    irreducibly quantified."""
