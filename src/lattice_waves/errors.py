"""Exception hierarchy shared by all solver modules; each class carries its CLI exit status."""


class LatticeWavesError(Exception):
    """Base class for all library errors."""

    code = "INTERNAL"
    exit_status = 1


class ModulusOutOfRange(LatticeWavesError):
    """A torsion modulus smaller than 2 was supplied."""

    code = "MODULUS_OUT_OF_RANGE"


class ShapeMismatch(LatticeWavesError):
    """An element's coordinate vectors do not match the group signature."""

    code = "SHAPE_MISMATCH"


class ZeroDenominator(LatticeWavesError):
    """A rational value arrived with denominator zero."""

    code = "ZERO_DENOMINATOR"


class GroupMismatch(LatticeWavesError):
    """A function is used on a group or tree other than its own (``functions.require_domain``)."""

    code = "GROUP_MISMATCH"


class ContainsIdentity(LatticeWavesError):
    """A generating set contains the identity element."""

    code = "CONTAINS_IDENTITY"


class NotSymmetric(LatticeWavesError):
    """A generating set is not closed under negation."""

    code = "NOT_SYMMETRIC"


class DoesNotGenerate(LatticeWavesError):
    """A candidate set fails to generate the whole group."""

    code = "DOES_NOT_GENERATE"


class InfiniteSubgroup(LatticeWavesError):
    """A subgroup generator has a nonzero free part, so the subgroup is infinite."""

    code = "INFINITE_SUBGROUP"


class SInsideH(LatticeWavesError):
    """A coset-graph generator lies inside the subgroup H."""

    code = "S_INSIDE_H"


class NotSolvable(LatticeWavesError):
    """The wave equation's zero-mean compatibility condition fails.

    ``detail`` carries the offending sum (and, for trees, the vertex at
    which the condition failed).
    """

    code = "NOT_SOLVABLE"
    exit_status = 2

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class TorsionUnsupported(LatticeWavesError):
    """A torsion-free diagnostic was invoked on a group with torsion."""

    code = "TORSION_UNSUPPORTED"


class CosetInconstant(LatticeWavesError):
    """A lifted function is not constant on the cosets of H."""

    code = "COSET_INCONSTANT"


class IndexOutOfRange(LatticeWavesError):
    """An index lies outside its valid range: a coefficient index, a time index or a radius."""

    code = "INDEX_OUT_OF_RANGE"


class UsageError(LatticeWavesError):
    """The command line does not parse: an unknown option, a missing one or a bad value."""

    code = "USAGE"


class FileError(LatticeWavesError):
    """A problem file cannot be read or decoded as JSON, or an output file cannot be written."""

    code = "VALIDATION"

    def __init__(self, cause: Exception):
        super().__init__(f"{type(cause).__name__}: {cause}")
