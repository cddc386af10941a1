#pragma once
// Seeded generator of the serve-mix workload (perfbench/README.md).
//
// Traffic is a closed loop of SolveService::run batches of 24 solves over
// scheme in {euler, midpoint, ssprk3, rk4} x box in {16, 24} x nboxes in
// {2, 4, 8} x steps in {2, 4}, fuse and policy `auto`. The draw is
// stratified by batch pair: every pair of consecutive batches holds each
// of the 48 (scheme, box, nboxes, steps) shapes exactly once. The seed
// decides, per (scheme, box, nboxes), which batch of the pair gets the
// 2-step and which the 4-step solve, and the order inside each batch. So
// two seeds give different mixes with the same shape distribution and the
// same work per pair, which keeps throughput comparable across seeds.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/solve_service.hpp"

namespace perfbench {

/// Solves per batch: one per (scheme, box, nboxes).
inline constexpr int kBatchSolves = 24;

/// Batch pair `pair` (0 = the cold pair) of the mix for `seed`: element
/// 0 and 1 are the two 24-solve batches.
std::vector<std::vector<fluxdiv::serve::InstanceSpec>>
mixPair(std::uint64_t seed, int pair);

/// The spec as a workload-spec line (docs/serving.md format).
std::string specLine(const fluxdiv::serve::InstanceSpec& spec);

/// Shape of a solve without its name: "scheme box nboxes steps".
std::string shapeKey(const fluxdiv::serve::InstanceSpec& spec);

/// FNV-1a digest of the spec lines of `batches`, in order.
std::uint64_t specDigest(
    const std::vector<std::vector<fluxdiv::serve::InstanceSpec>>& batches);

} // namespace perfbench
