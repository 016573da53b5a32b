// Stage iii, part 2: attacker localization.
//
// Two cooperating implementations are provided:
//
//  * tlm_formula_attackers — a literal transcription of the Table-Like
//    Method of Fig. 3: per-direction victim-id sets are reduced with the
//    published formulas (East abnormal -> attacker = Max(E) + 1; North ->
//    Max(N) + R; West -> Min(W) - 1; South -> Min(S) - R), with
//    North/South runs suppressed when they are the Y-phase continuation of
//    an X-phase run (the "two abnormal frames" conditions of the table).
//
//  * trace_attackers — the same rule set generalized as a flow graph: every
//    abnormal input port (node, d) is a directed edge neighbor(node, d) ->
//    node; graph sources are attackers, sinks are target victims. On clean
//    single- and double-attacker masks both implementations agree (tested);
//    the graph form additionally yields the target victims that the Victim
//    Complementing Enhancement needs, and handles the ">= 2 attackers by
//    multiple samples" cells of the table in one pass.
#pragma once

#include <vector>

#include "monitor/frame_geometry.hpp"
#include "monitor/sampler.hpp"

namespace dl2f::core {

struct TlmResult {
  std::vector<NodeId> attackers;       ///< ascending, deduplicated
  std::vector<NodeId> target_victims;  ///< flow sinks (empty for formula-only path)
};

/// Literal Fig. 3 formula table over binarized directional segmentations.
// lint-allow(DL008): test oracle — Fig. 3's literal table that trace_attackers is tested against
[[nodiscard]] TlmResult tlm_formula_attackers(const monitor::FrameGeometry& geom,
                                              const monitor::DirectionalFrames& seg_binary);

/// Flow-graph generalization (used by the end-to-end pipeline).
[[nodiscard]] TlmResult trace_attackers(const monitor::FrameGeometry& geom,
                                        const monitor::DirectionalFrames& seg_binary);

}  // namespace dl2f::core
