#include "core/pipeline.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "common/debug_hooks.hpp"

namespace dl2f::core {

PipelineEngine::PipelineEngine(const Dl2FenceConfig& cfg)
    : cfg_(cfg), geom_(cfg.detector.mesh), detector_(cfg.detector), localizer_(cfg.localizer) {
  // Sessions size each arena from its own model but walk every frame with
  // the detector's geometry, so a mismatch would overrun the arenas.
  if (!(cfg.localizer.mesh == cfg.detector.mesh)) {
    throw std::invalid_argument("PipelineEngine: localizer mesh differs from detector mesh");
  }
  if (cfg.enable_temporal) {
    if (!(cfg.temporal.mesh == cfg.detector.mesh)) {
      throw std::invalid_argument("PipelineEngine: temporal mesh differs from detector mesh");
    }
    temporal_.emplace(cfg.temporal);
  }
}

PipelineSession::PipelineSession(const PipelineEngine& engine, std::int32_t max_batch)
    : engine_(&engine), max_batch_(std::max(max_batch, 1)) {
  detector_ctx_.bind(engine.detector().model(), engine.detector().input_shape(), max_batch_);
  localizer_ctx_.bind(engine.localizer().model(), engine.localizer().input_shape(),
                      static_cast<std::int32_t>(kNumMeshDirections));
  if (engine.has_temporal()) {
    temporal_ctx_.bind(engine.temporal().model(), engine.temporal().input_shape(), 1);
  }
}

void PipelineSession::localize_into(const monitor::FrameSample& sample, RoundResult& r) {
  const Dl2FenceConfig& cfg = engine_->config();
  const monitor::FrameGeometry& geom = engine_->geometry();
  const DoSLocalizer& localizer = engine_->localizer();
  const auto& frames = cfg.localizer.feature == Feature::Vco ? sample.vco : sample.boc;

  // One batched segmentation pass over the four directional frames. The
  // staging + inference region runs entirely in the session's
  // preallocated arena — a contract the Debug-only scope enforces (the
  // binary-frame assembly below it allocates by design).
  const nn::Tensor4* seg_out = nullptr;
  {
    const dbg::NoAllocScope no_alloc("PipelineSession::localize_into inference");
    nn::Tensor4& in = localizer_ctx_.input(static_cast<std::int32_t>(kNumMeshDirections));
    for (std::size_t d = 0; d < kNumMeshDirections; ++d) {
      localizer.preprocess_into(frames[d], in, static_cast<std::int32_t>(d));
    }
    seg_out = &localizer.model().infer_batch(localizer_ctx_);
  }
  const nn::Tensor4& seg = *seg_out;

  const float threshold = cfg.localizer.threshold;
  monitor::DirectionalFrames binary;
  for (std::size_t d = 0; d < kNumMeshDirections; ++d) {
    Frame f(geom.frame_rows(), geom.frame_cols());
    const float* soft = seg.sample(static_cast<std::int32_t>(d));
    for (std::size_t i = 0; i < f.size(); ++i) {
      f.data()[i] = soft[i] > threshold ? 1.0F : 0.0F;
    }
    binary[d] = std::move(f);
  }

  r.detected = true;
  r.fusion = multi_frame_fusion(geom, binary, threshold);
  r.tlm = trace_attackers(geom, binary);
  r.segmentation = std::move(binary);
  r.victims = r.fusion.victims;
  if (cfg.enable_vce) {
    r.victims = victim_complementing_enhancement(geom.mesh(), r.tlm, std::move(r.victims));
  }
}

void PipelineSession::detect_chunk(monitor::WindowBatch chunk, std::span<float> probabilities) {
  // The whole chunk — staging, batched inference, probability readout —
  // runs in the preallocated arena: zero allocations, checked in Debug.
  const dbg::NoAllocScope no_alloc("PipelineSession::detect_chunk");
  assert(probabilities.size() == chunk.size());
  const DoSDetector& detector = engine_->detector();
  nn::Tensor4& in = detector_ctx_.input(static_cast<std::int32_t>(chunk.size()));
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    detector.preprocess_into(chunk[i], in, static_cast<std::int32_t>(i));
  }
  const nn::Tensor4& out = detector.model().infer_batch(detector_ctx_);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    probabilities[i] = out.sample(static_cast<std::int32_t>(i))[0];
  }
}

RoundResult PipelineSession::process(const monitor::FrameSample& sample) {
  monitor::check_window(sample, engine_->geometry().mesh(), "PipelineSession::process");
  RoundResult r;
  detect_chunk({&sample, 1}, {&r.probability, 1});
  r.detected = r.probability > engine_->config().detector.threshold;
  if (r.detected) localize_into(sample, r);
  return r;
}

std::vector<RoundResult> PipelineSession::process_batch(monitor::WindowBatch samples) {
  const std::vector<float> probs = detect_batch(samples);
  const float threshold = engine_->config().detector.threshold;
  std::vector<RoundResult> out(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out[i].probability = probs[i];
    out[i].detected = probs[i] > threshold;
    if (out[i].detected) localize_into(samples[i], out[i]);
  }
  return out;
}

std::vector<float> PipelineSession::detect_batch(monitor::WindowBatch samples) {
  for (const auto& s : samples) {
    monitor::check_window(s, engine_->geometry().mesh(), "PipelineSession::detect_batch");
  }
  std::vector<float> probs(samples.size());
  const auto chunk_size = static_cast<std::size_t>(max_batch_);
  for (std::size_t base = 0; base < samples.size(); base += chunk_size) {
    const std::size_t n = std::min(chunk_size, samples.size() - base);
    detect_chunk(samples.subspan(base, n), std::span(probs).subspan(base, n));
  }
  return probs;
}

float PipelineSession::detect_sequence(monitor::SequenceView seq) {
  const temporal::TemporalDetector& head = engine_->temporal();
  head.check_sequence(seq, "PipelineSession::detect_sequence");
  const dbg::NoAllocScope no_alloc("PipelineSession::detect_sequence");
  nn::Tensor4& in = temporal_ctx_.input(1);
  head.preprocess_into(seq, in, 0);
  return head.model().infer_batch(temporal_ctx_).sample(0)[0];
}

RoundResult PipelineSession::process_sequence(monitor::SequenceView seq) {
  assert(!seq.empty());
  const monitor::FrameSample& newest = *seq.back();
  if (!engine_->has_temporal()) return process(newest);

  monitor::check_window(newest, engine_->geometry().mesh(), "PipelineSession::process_sequence");
  RoundResult r;
  detect_chunk({&newest, 1}, {&r.probability, 1});
  const bool single = r.probability > engine_->config().detector.threshold;

  const temporal::TemporalDetectorConfig& tcfg = engine_->config().temporal;
  r.sequence_probability = detect_sequence(seq);
  const bool sequence = r.sequence_probability > tcfg.threshold;

  if (single || sequence) {
    localize_into(newest, r);
    if (sequence) {
      // Colluding assist: sources whose sequence-mean injection demand
      // stands out get named alongside the TLM's verdict (the TLM sees
      // only saturated links, which collusion avoids by design).
      r.source_suspects = temporal::source_suspects(seq, tcfg.mesh, tcfg.suspects);
      if (!r.source_suspects.empty()) {
        std::vector<NodeId> merged;
        merged.reserve(r.tlm.attackers.size() + r.source_suspects.size());
        std::set_union(r.tlm.attackers.begin(), r.tlm.attackers.end(),
                       r.source_suspects.begin(), r.source_suspects.end(),
                       std::back_inserter(merged));
        r.tlm.attackers = std::move(merged);
      }
    }
  }
  return r;
}

RoundResult PipelineSession::localize(const monitor::FrameSample& sample) {
  monitor::check_window(sample, engine_->geometry().mesh(), "PipelineSession::localize");
  RoundResult r;
  localize_into(sample, r);
  return r;
}

}  // namespace dl2f::core
