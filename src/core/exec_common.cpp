#include "core/exec_common.hpp"

#include <algorithm>
#include <utility>

namespace fluxdiv::core::detail {

namespace {

/// z-slab count of `region` under decomposeBox's rule (1 = unsplit).
int zSlabCount(const Box& region, std::size_t nBoxes, int nThreads) {
  const auto threads = static_cast<std::size_t>(std::max(nThreads, 1));
  if (nBoxes == 0 || nBoxes >= threads) {
    return 1;
  }
  const auto perBox =
      static_cast<std::int64_t>((2 * threads + nBoxes - 1) / nBoxes);
  const std::int64_t byGrain = region.numPts() / kMinSlabCells;
  return static_cast<int>(std::max<std::int64_t>(
      1, std::min({perBox, byGrain,
                   static_cast<std::int64_t>(region.size(2))})));
}

/// Append `region` to `out`, cut into `parts` z-slabs whose plane counts
/// differ by at most one. Slab tags extend `tag` with " z<s>/<parts>".
void appendZSlabs(std::vector<BoxPiece>& out, const Box& region, int parts,
                  const std::string& tag) {
  if (parts <= 1) {
    out.push_back({region, tag});
    return;
  }
  const int nz = region.size(2);
  int lo = region.lo(2);
  for (int s = 0; s < parts; ++s) {
    const int planes = nz / parts + (s < nz % parts ? 1 : 0);
    IntVect slo = region.lo();
    IntVect shi = region.hi();
    slo[2] = lo;
    shi[2] = lo + planes - 1;
    lo += planes;
    out.push_back({Box(slo, shi), tag + " z" + std::to_string(s) + "/" +
                                      std::to_string(parts)});
  }
}

} // namespace

std::vector<BoxPiece> decomposeBox(const Box& valid, BoxCut cut,
                                   std::size_t nBoxes, int nThreads) {
  std::vector<BoxPiece> out;
  constexpr int g = kNumGhost;
  const Box interior = valid.grow(-g);
  if (cut == BoxCut::Whole || interior.empty()) {
    appendZSlabs(out, valid, zSlabCount(valid, nBoxes, nThreads), "");
    return out;
  }
  appendZSlabs(out, interior, zSlabCount(interior, nBoxes, nThreads),
               " int");
  // The halo fringe, peeled z then y then x so the six slabs partition
  // valid minus interior; each reads ghosts on one side only.
  const Box zmid = valid.grow(2, -g);
  const Box zymid = zmid.grow(1, -g);
  const std::pair<Box, const char*> fringe[6] = {
      {valid.lowSlab(2, g), " z-lo"},
      {valid.highSlab(2, g), " z-hi"},
      {zmid.lowSlab(1, g), " y-lo"},
      {zmid.highSlab(1, g), " y-hi"},
      {zymid.lowSlab(0, g), " x-lo"},
      {zymid.highSlab(0, g), " x-hi"}};
  for (const auto& [box, side] : fringe) {
    if (!box.empty()) {
      out.push_back({box, side});
    }
  }
  return out;
}

} // namespace fluxdiv::core::detail
