#pragma once
// Shared plumbing of the fluxdiv benchmark (perfbench/README.md): run
// options, the report every workload fills (metrics by name with units,
// plus the output-check tally), and the helpers the workloads share.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/variant.hpp"
#include "harness/timer.hpp"
#include "grid/layout.hpp"
#include "grid/leveldata.hpp"
#include "grid/real.hpp"

namespace perfbench {

namespace fd = fluxdiv;

/// Time step of every workload.
inline constexpr fd::grid::Real kDt = 1e-4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10; ///< measurement budget of one run
  bool trace = false;  ///< per-layer (traced) pass instead of end to end
  bool smoke = false;  ///< tiny shapes: every workload in seconds
  int threads = 1;     ///< min(4, available cores), fixed by main()
};

/// Metrics by name (in emission order) plus the tally of output checks.
class Report {
public:
  void set(const std::string& name, double value, const std::string& unit);

  /// Count one output check; a failed one is logged to stderr with `what`.
  void check(bool ok, const std::string& what);

  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }

private:
  std::vector<Metric> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// The within-box variant every workload runs: the service default
/// (shift-fuse, WithinBox), so level and service workloads share it.
fd::core::VariantConfig benchConfig();

/// A periodic cube of side `domainSide` cut into boxes of side `boxSide`.
fd::grid::DisjointBoxLayout cubeLayout(int domainSide, int boxSide);

/// A level on `layout` holding the exemplar initial state.
fd::grid::LevelData exemplarLevel(const fd::grid::DisjointBoxLayout& layout);

/// FNV-1a digest of the valid-region values of every component, box by
/// box. Two levels on the same layout have equal digests exactly when
/// levelDiffInf == 0 on every component (up to hash collisions): -0.0 is
/// hashed as +0.0. A reference kept as a digest costs no memory, so it
/// does not count in peak_rss_mb.
std::uint64_t validDigest(const fd::grid::LevelData& level);

/// One timed interval and the share of the machine's CPU capacity the
/// hypervisor stole during it.
struct Sample {
  double seconds = 0;
  double stolenShare = 0;
};

/// Measures one interval: construct at its start, call stop() at its end.
/// The steal is the `steal` column of /proc/stat (0 where the kernel does
/// not report it).
class SampleTimer {
public:
  SampleTimer();
  [[nodiscard]] Sample stop() const;

private:
  fd::harness::Timer wall_;
  double stolen0_;
};

/// Indices of the samples a neighbour on a shared host disturbed least:
/// every sample with under 1% of the CPU capacity stolen, when those are
/// at least half; otherwise the least-stolen half. On an unshared host
/// that is every sample.
std::vector<std::size_t> leastStolen(const std::vector<Sample>& samples);

/// The seconds of the leastStolen() samples, in sample order.
std::vector<double> leastStolenSeconds(const std::vector<Sample>& samples);

/// Starts a new resident-memory high-water mark at the current resident
/// set (writes 5 to /proc/self/clear_refs), so that memory the benchmark
/// held only for its references does not count. Returns false where the
/// kernel refuses; the mark then covers the whole process.
bool resetPeakRss();

/// Resident-memory high-water mark since resetPeakRss() (VmHWM of
/// /proc/self/status), in MiB.
double peakRssMiB();

} // namespace perfbench
