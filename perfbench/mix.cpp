#include "mix.hpp"

#include <array>
#include <sstream>

namespace perfbench {

namespace {

namespace fd = fluxdiv;

/// splitmix64: a fixed, platform-independent stream (std::shuffle and the
/// std distributions are implementation-defined, so they are not used).
class SplitMix {
public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n) (n is tiny here, so the modulo bias is negligible
  /// and, more to the point, deterministic).
  std::size_t below(std::size_t n) { return next() % n; }

private:
  std::uint64_t state_;
};

void shuffle(std::vector<fd::serve::InstanceSpec>& specs, SplitMix& rng) {
  for (std::size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[rng.below(i)]);
  }
}

constexpr std::array<int, 2> kBoxes = {16, 24};
constexpr std::array<int, 3> kNBoxes = {2, 4, 8};

} // namespace

std::vector<std::vector<fd::serve::InstanceSpec>> mixPair(std::uint64_t seed,
                                                          int pair) {
  SplitMix rng(seed * 0x100000001b3ULL + static_cast<std::uint64_t>(pair));
  std::vector<std::vector<fd::serve::InstanceSpec>> batches(2);
  for (const fd::solvers::Scheme scheme : fd::solvers::kSchemes) {
    for (const int box : kBoxes) {
      for (const int nboxes : kNBoxes) {
        const bool shortFirst = (rng.next() & 1U) != 0;
        for (int b = 0; b < 2; ++b) {
          fd::serve::InstanceSpec spec;
          spec.scheme = scheme;
          spec.boxSize = box;
          spec.nBoxes = nboxes;
          spec.steps = (b == 0) == shortFirst ? 2 : 4;
          spec.autoFuse = true;
          spec.autoPolicy = true;
          std::ostringstream name;
          name << 'p' << pair << (b == 0 ? "a-" : "b-")
               << fd::solvers::schemeName(scheme) << "-b" << box << "-n"
               << nboxes << "-s" << spec.steps;
          spec.name = name.str();
          batches[static_cast<std::size_t>(b)].push_back(std::move(spec));
        }
      }
    }
  }
  for (auto& batch : batches) {
    shuffle(batch, rng);
  }
  return batches;
}

std::string specLine(const fd::serve::InstanceSpec& spec) {
  std::ostringstream os;
  os << spec.name << ' ' << shapeKey(spec) << " fuse=auto policy=auto";
  return os.str();
}

std::string shapeKey(const fd::serve::InstanceSpec& spec) {
  std::ostringstream os;
  os << "scheme=" << fd::solvers::schemeName(spec.scheme)
     << " box=" << spec.boxSize << " nboxes=" << spec.nBoxes
     << " steps=" << spec.steps;
  return os.str();
}

std::uint64_t specDigest(
    const std::vector<std::vector<fd::serve::InstanceSpec>>& batches) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& batch : batches) {
    for (const fd::serve::InstanceSpec& spec : batch) {
      for (const char ch : specLine(spec) + '\n') {
        h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
      }
    }
  }
  return h;
}

} // namespace perfbench
