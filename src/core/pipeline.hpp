// The end-to-end DL2Fence framework (Fig. 2): detector gates localizer;
// segmentations fuse into victims; VCE optionally completes routing-path
// victims; TLM pinpoints attackers. §3's operational flow:
//   (1) periodic VCO sampling -> detector;
//   (2) on anomaly, feature frames -> segmentation localizer;
//   (3) MFF reconstructs attacking routes and victims; TLM finds attackers;
//   (4) next sampling round repeats until no abnormal frames appear.
//
// Engine/session split — the inference API is two halves:
//
//   * PipelineEngine: the immutable half. Owns the trained detector and
//     localizer weights plus the frame geometry; const after construction
//     and safely shareable by const& across any number of threads. Built
//     from a config with untrained weights, which a training flow or
//     runtime::ModelSnapshot::make_engine (deployment) then fills.
//
//   * PipelineSession: the mutable half. One per thread; owns the
//     preallocated nn::InferenceContext arenas (layer activations, layer
//     scratch) and stages windows into them, so the scoring hot path
//     performs zero heap allocations. process() scores one monitoring
//     window; process_batch() scores a monitor::WindowBatch, pushing all
//     windows through the detector CNN in batched, allocation-free
//     passes. Both stage through one site, the batched detector pass
//     (process() runs it at batch size 1), so results are
//     bitwise-identical between the two and to the per-sample
//     nn::Sequential::forward the tests hold them against. The session is
//     the one scorer of all three CNNs.
//
// Scaling model: N sessions, one weight set. runtime::DefenseRuntime owns
// a session per live loop; runtime::run_campaign shares one engine across
// its whole worker pool; core::score_benchmark and the table benches score
// test sets through process_batch. Sessions should be constructed ON the
// thread that will use them: per-thread malloc arenas then place each
// session's scratch on disjoint pages, so concurrent sessions never share
// a cache line (see nn/inference.hpp).
//
// Training mirrors the same split: train_detector, train_localizer and
// temporal::train_temporal_detector all run nn::train (minibatches packed
// into nn::Tensor4, per-worker nn::InferenceContext arenas, fixed-order
// sliced gradient reduction) and produce byte-identical weights for a
// given seed at any nn::TrainConfig::threads value. A training flow builds
// an untrained PipelineEngine(cfg) and trains its models in place through
// the engine's mutable_detector()/mutable_localizer()/mutable_temporal()
// accessors before any session is opened (runtime::train_model_snapshot
// does exactly this). nn::train is the one trainer.
#pragma once

#include <optional>
#include <span>

#include "core/detector.hpp"
#include "core/fusion.hpp"
#include "core/localizer.hpp"
#include "core/tlm.hpp"
#include "core/vce.hpp"
#include "nn/inference.hpp"
#include "temporal/detector.hpp"

namespace dl2f::core {

struct Dl2FenceConfig {
  DetectorConfig detector;    ///< default feature: VCO (Table 3 combination)
  LocalizerConfig localizer;  ///< default feature: BOC (Table 3 combination)
  bool enable_vce = true;     ///< Victim Complementing Enhancement (optional)

  /// Temporal sequence head (src/temporal): classifies the last
  /// `temporal.sequence_length` windows jointly, catching the evasive
  /// families the single-window detector is blind to. Off by default —
  /// the paper's pipeline is single-window.
  bool enable_temporal = false;
  temporal::TemporalDetectorConfig temporal;

  /// Defaults matching the paper's chosen VCO + BOC configuration.
  static Dl2FenceConfig paper_default(const MeshShape& mesh) {
    Dl2FenceConfig cfg;
    cfg.detector.mesh = mesh;
    cfg.detector.feature = Feature::Vco;
    cfg.localizer.mesh = mesh;
    cfg.localizer.feature = Feature::Boc;
    cfg.temporal.mesh = mesh;
    return cfg;
  }
};

/// Output of one detection/localization round on one monitoring window.
struct RoundResult {
  bool detected = false;       ///< detector verdict; everything below empty if false
  float probability = 0.0F;    ///< detector sigmoid output
  FusionResult fusion;         ///< MFF over the segmented frames
  std::vector<NodeId> victims; ///< fused victims, VCE-completed if enabled
  TlmResult tlm;               ///< attackers and target victims
  /// The localizer's binarized (0/1) directional frames, R x (R-1) each,
  /// that fusion and TLM read.
  monitor::DirectionalFrames segmentation;

  /// Temporal head sigmoid over the window sequence (0 when the engine has
  /// no temporal head or the round was single-window).
  float sequence_probability = 0.0F;
  /// Colluding-source assist: nodes whose sequence-mean injection demand
  /// stood out (temporal::source_suspects); already unioned into
  /// tlm.attackers. Empty on single-window rounds.
  std::vector<NodeId> source_suspects;
};

/// The immutable half: trained detector + localizer weights and geometry.
/// Every accessor is const; one engine serves any number of concurrent
/// PipelineSessions. Mutable model access exists only for training flows
/// and weight loading, and must not run concurrently with session scoring.
class PipelineEngine {
 public:
  /// Architecture only — weights are uninitialized until a training flow
  /// (or ModelSnapshot::make_engine) fills them through the mutable
  /// accessors. Throws std::invalid_argument when the detector, localizer
  /// and (if enabled) temporal meshes disagree.
  explicit PipelineEngine(const Dl2FenceConfig& cfg);

  [[nodiscard]] const Dl2FenceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const monitor::FrameGeometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] const DoSDetector& detector() const noexcept { return detector_; }
  [[nodiscard]] const DoSLocalizer& localizer() const noexcept { return localizer_; }

  /// True when cfg.enable_temporal constructed a temporal sequence head.
  [[nodiscard]] bool has_temporal() const noexcept { return temporal_.has_value(); }
  [[nodiscard]] const temporal::TemporalDetector& temporal() const noexcept {
    assert(temporal_.has_value());
    return *temporal_;
  }

  /// Training-flow escape hatches; never call while sessions are scoring.
  [[nodiscard]] DoSDetector& mutable_detector() noexcept { return detector_; }
  [[nodiscard]] DoSLocalizer& mutable_localizer() noexcept { return localizer_; }
  [[nodiscard]] temporal::TemporalDetector& mutable_temporal() noexcept {
    assert(temporal_.has_value());
    return *temporal_;
  }

 private:
  Dl2FenceConfig cfg_;
  monitor::FrameGeometry geom_;
  DoSDetector detector_;
  DoSLocalizer localizer_;
  std::optional<temporal::TemporalDetector> temporal_;
};

/// The mutable half: per-thread scratch for scoring windows against one
/// shared engine. Construction preallocates the detector and localizer
/// inference arenas; after that, scoring performs no heap allocation on
/// the benign (undetected) path and only result-owning allocations on the
/// detected path. Every scoring method throws std::invalid_argument for a
/// window from another mesh (monitor::check_window), and the sequence
/// methods for a sequence that is not sequence_length windows long.
class PipelineSession {
 public:
  /// Default detector batch capacity (process_batch chunks to this).
  static constexpr std::int32_t kDefaultMaxBatch = 32;

  /// `engine` is borrowed and must outlive the session.
  explicit PipelineSession(const PipelineEngine& engine,
                           std::int32_t max_batch = kDefaultMaxBatch);

  [[nodiscard]] const PipelineEngine& engine() const noexcept { return *engine_; }

  /// Run the full round on one monitoring window.
  [[nodiscard]] RoundResult process(const monitor::FrameSample& sample);

  /// Run the full round on every window of a batch: one batched detector
  /// pass per max_batch chunk, then localization of detected windows.
  /// result[i] is bitwise-identical to process(samples[i]).
  [[nodiscard]] std::vector<RoundResult> process_batch(monitor::WindowBatch samples);

  /// Detector probabilities only (no localization), batched.
  [[nodiscard]] std::vector<float> detect_batch(monitor::WindowBatch samples);

  /// Sequence-aware round: the newest window runs through the single-window
  /// detector as usual AND the whole sequence (sequence_length windows,
  /// oldest first — typically a WindowHistory view) runs through the
  /// temporal head; detection is the OR of the two verdicts. On a temporal
  /// detection the cross-source suspect set is unioned into tlm.attackers
  /// (colluding sources rarely saturate any single link, so the
  /// segmentation TLM alone cannot name them). Falls back to a plain
  /// single-window round when the engine has no temporal head.
  [[nodiscard]] RoundResult process_sequence(monitor::SequenceView seq);

  /// Temporal-head probability only. Engine must have a temporal head.
  [[nodiscard]] float detect_sequence(monitor::SequenceView seq);

  /// Localization only (used when scoring the localizer independently of
  /// detector verdicts, as the per-feature Tables 1-2 do).
  [[nodiscard]] RoundResult localize(const monitor::FrameSample& sample);

 private:
  /// The one detector staging site: stage `chunk` (at most max_batch
  /// windows) into the detector arena, run one batched pass and write
  /// probability i to probabilities[i]. Allocation-free.
  void detect_chunk(monitor::WindowBatch chunk, std::span<float> probabilities);
  void localize_into(const monitor::FrameSample& sample, RoundResult& r);

  const PipelineEngine* engine_;
  std::int32_t max_batch_;
  nn::InferenceContext detector_ctx_;
  nn::InferenceContext localizer_ctx_;
  /// Bound only when the engine has a temporal head (batch capacity 1 —
  /// the online loop scores one sequence per window).
  nn::InferenceContext temporal_ctx_;
};

}  // namespace dl2f::core
