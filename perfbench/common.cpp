#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>

#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "serve/solve_service.hpp"

namespace perfbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: output check failed: " << what << '\n';
  }
}

fd::core::VariantConfig benchConfig() {
  return fd::serve::ServiceOptions{}.cfg;
}

fd::grid::DisjointBoxLayout cubeLayout(int domainSide, int boxSide) {
  const fd::grid::Box domain(fd::grid::IntVect::zero(),
                             fd::grid::IntVect::unit(domainSide - 1));
  return fd::grid::DisjointBoxLayout(fd::grid::ProblemDomain(domain),
                                     boxSide);
}

fd::grid::LevelData exemplarLevel(const fd::grid::DisjointBoxLayout& layout) {
  fd::grid::LevelData u(layout, fd::kernels::kNumComp,
                        fd::kernels::kNumGhost);
  fd::kernels::initializeExemplar(u);
  return u;
}

std::uint64_t validDigest(const fd::grid::LevelData& level) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < level.size(); ++i) {
    const fd::grid::FArrayBox& fab = level[i];
    const fd::grid::FabIndexer index = fab.indexer();
    for (int c = 0; c < level.nComp(); ++c) {
      const fd::grid::Real* data = fab.dataPtr(c);
      fd::grid::forEachCell(level.validBox(i), [&](int x, int y, int z) {
        const fd::grid::Real v = data[index(x, y, z)] + 0.0; // -0 -> +0
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        for (int byte = 0; byte < 8; ++byte) {
          h = (h ^ ((bits >> (8 * byte)) & 0xffU)) * 0x100000001b3ULL;
        }
      });
    }
  }
  return h;
}

namespace {

/// CPU time the hypervisor has stolen from this machine so far, summed
/// over its CPUs, in seconds.
double stolenSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") {
    return 0.0;
  }
  for (double& f : field) {
    if (!(stat >> f)) {
      return 0.0;
    }
  }
  // user nice system idle iowait irq softirq steal, in clock ticks.
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

} // namespace

SampleTimer::SampleTimer() : stolen0_(stolenSeconds()) {}

Sample SampleTimer::stop() const {
  Sample s;
  s.seconds = wall_.seconds();
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  s.stolenShare = (stolenSeconds() - stolen0_) / (s.seconds * cpus);
  return s;
}

std::vector<std::size_t> leastStolen(const std::vector<Sample>& samples) {
  constexpr double kClean = 0.01;
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return samples[a].stolenShare < samples[b].stolenShare;
                   });
  const std::size_t half = (samples.size() + 1) / 2;
  std::size_t keep = 0;
  while (keep < order.size() && samples[order[keep]].stolenShare < kClean) {
    ++keep;
  }
  order.resize(std::max(keep, half));
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> leastStolenSeconds(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const std::size_t i : leastStolen(samples)) {
    out.push_back(samples[i].seconds);
  }
  return out;
}

bool resetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
  return static_cast<bool>(clear);
}

double peakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0; // in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

} // namespace perfbench
