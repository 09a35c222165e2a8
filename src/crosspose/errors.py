"""Exception types shared across the toolkit."""


class CrossposeError(Exception):
    """Base class for all toolkit-specific errors."""


class EmptyMask(CrossposeError):
    """A mask selects no valid pixels where at least one is required."""


class ZeroVector(CrossposeError):
    """A feature vector has (near-)zero norm, so cosine distance is undefined."""


class TooFewMatches(CrossposeError):
    """Fewer than three correspondences were supplied to a pose solver."""


class NoConsensus(CrossposeError):
    """No sampled hypothesis reached the minimum inlier count."""


class DegenerateConfiguration(CrossposeError):
    """Point sets are collinear or coincident; a rigid fit is not unique."""


class EmptyMatchSet(CrossposeError):
    """A loss or statistic was requested over zero matches."""


class EmptyRender(CrossposeError):
    """No model point projects into the image under either pose."""


class BehindCamera(CrossposeError):
    """Every model point lies behind the camera; a 2D metric is undefined."""


class ConfigError(CrossposeError):
    """A setting is invalid, or a manifest or a path it needs is unusable."""
