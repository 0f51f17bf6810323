"""Exception types raised across the pipeline."""

import json


class NetwardenError(Exception):
    """Base class for all package errors."""

    code = "error"

    def as_machine_line(self) -> str:
        return json.dumps({"code": self.code, "message": str(self)})


# --- capture / decoding ---

class BadMagic(NetwardenError):
    code = "bad_magic"


class TruncatedHeader(NetwardenError):
    code = "truncated_header"


class UnsupportedLinkType(NetwardenError):
    code = "unsupported_link_type"


class MalformedHeader(NetwardenError):
    code = "malformed_header"


class NonIP(NetwardenError):
    """Frame carries no IP packet; callers count and skip."""

    code = "non_ip"


class FragmentContinuation(NonIP):
    """IP fragment with nonzero offset: no L4 header, counted not decoded."""

    code = "fragment_continuation"

    def __init__(self, byte_count: int):
        super().__init__("fragment continuation (%d bytes)" % byte_count)
        self.byte_count = byte_count


# --- metering / features ---

class ManifestMismatch(NetwardenError):
    code = "manifest_mismatch"


class NonFiniteFeature(NetwardenError):
    code = "non_finite_feature"


# --- feature selection ---

class NonPositiveSigma(NetwardenError):
    code = "non_positive_sigma"


class DegenerateGraph(NetwardenError):
    code = "degenerate_graph"


class ZeroVariance(NetwardenError):
    code = "zero_variance"


class TooFewSamples(NetwardenError):
    code = "too_few_samples"


class RankListMismatch(NetwardenError):
    code = "rank_list_mismatch"


# --- detectors ---

class EmptyTraining(NetwardenError):
    code = "empty_training"


class MalformedModel(NetwardenError):
    code = "malformed_model"


class SingularCovariance(NetwardenError):
    code = "singular_covariance"


class KTooLarge(NetwardenError):
    code = "k_too_large"


class NonConvergence(NetwardenError):
    code = "non_convergence"

    def __init__(self, msg: str, kkt_violation: float | None = None):
        super().__init__(msg)
        self.kkt_violation = kkt_violation


class DivergedLoss(NetwardenError):
    code = "diverged_loss"


class TooFewScores(NetwardenError):
    code = "too_few_scores"


# --- evaluation ---

class LabelVocabularyMismatch(NetwardenError):
    code = "label_vocabulary_mismatch"


class SingleClass(NetwardenError):
    code = "single_class"


# --- synth / cli ---

class InvalidSpec(NetwardenError):
    code = "invalid_spec"


class ConfigInvalid(NetwardenError):
    code = "config_invalid"


class InputOutputError(NetwardenError):
    code = "io_error"
