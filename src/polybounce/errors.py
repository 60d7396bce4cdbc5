"""Named error types raised by the geometry kernel and the engines."""


class BilliardError(Exception):
    """Base for all domain errors; the CLI maps these to exit code 1."""


class ParseError(BilliardError):
    """Malformed table/surface/word input text."""


# numeric kernel
class BackendMismatch(BilliardError):
    """Exact and float scalars mixed in one operation."""


class DegenerateDirection(BilliardError):
    """Zero direction vector, or a grazing start along an edge."""


class DegenerateSegment(BilliardError):
    """Segment with coincident endpoints."""


# tables
class SelfIntersecting(BilliardError):
    """Polygon boundary crosses or touches itself."""


class DegenerateEdge(BilliardError):
    """Zero-length polygon edge."""


class LabelCountMismatch(BilliardError):
    """Number of labels differs from number of edges."""


class DuplicateLabel(BilliardError):
    """The same label used for two edges."""


class SingularMatrix(BilliardError):
    """Affine transform with zero determinant."""


# billiard flow
class StartOutsideTable(BilliardError):
    """Trajectory start not in the closed polygon, or aimed out of it."""


class NonIntervalSupport(BilliardError):
    """Padded word whose nonzero entries do not form an interval."""


# unfolding / analysis
class UnknownLabel(BilliardError):
    """Word symbol that is not an edge label of the table."""


class RepeatedLabel(BilliardError):
    """Two consecutive equal symbols in an unfolding word."""


class SingularTrajectory(BilliardError):
    """Operation requires a non-singular trajectory."""


class NotRational(BilliardError):
    """Rational unfolding requested for a non-rational table."""


class NExceedsBound(BilliardError):
    """lcm of angle denominators exceeds the configured bound."""


class UnknownVertex(BilliardError):
    """Vertex index out of range."""


class NonPositiveLength(BilliardError):
    """Length bound must be positive."""


class WindowMismatch(BilliardError):
    """Compared word languages have different window lengths."""


class IncompleteBijection(BilliardError):
    """Label map does not biject the two alphabets."""


class WindowTooLong(BilliardError):
    """Suffix window longer than the shortest word."""


# glued polygons
class UnpairedEdge(BilliardError):
    """Edge label missing from the pairing, or paired twice."""


class LengthMismatch(BilliardError):
    """Paired edges have different lengths."""


class GluingMismatch(BilliardError):
    """Pairing isometry does not carry one edge onto the other."""


class OrientationClash(BilliardError):
    """Pairing isometry preserves boundary orientation (surface unorientable)."""


class StartOutsidePolygon(BilliardError):
    """Cutting-sequence start not strictly inside the polygon."""


# rendering
class EmptyScene(BilliardError):
    """SVG scene with nothing to draw."""
