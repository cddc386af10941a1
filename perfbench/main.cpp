// The fluxdiv benchmark binary (perfbench/README.md). One workload per
// process, so each run's peak memory is its own:
//
//   fluxdiv_perfbench --workload box128|box16|serve-mix --seed N
//                     --seconds S --trace 0|1 [--smoke]
//   fluxdiv_perfbench --specs P --seed N
//
// The first form prints the machine record, a readable metric list and,
// as the last line, one JSON object {correct, attempted, failed, metrics}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// The second prints the first P batch pairs of the seeded serve-mix and
// their digest. Runs with threads = min(4, available cores). Refuses
// (exit 3, no result) when a FLUXDIV_* variable that changes the executed
// path is set, or when the library was built with a runtime gate or
// outside Release.

#include <sched.h>

#include <cmath>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/machine.hpp"
#include "mix.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Report;

constexpr int kExitUsage = 2;
constexpr int kExitRefused = 3;

/// Cores this process may run on (what `nproc` prints).
int availableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

/// The first FLUXDIV_* variable that changes the executed path, or "".
std::string pathChangingVariable() {
  static const char* const kExact[] = {"FLUXDIV_STEP_FUSE",
                                       "FLUXDIV_LEVEL_POLICY",
                                       "FLUXDIV_SHADOW_CHECK",
                                       "FLUXDIV_ADVISE"};
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string entry(*env);
    const std::string name = entry.substr(0, entry.find('='));
    if (name.rfind("FLUXDIV_VERIFY_", 0) == 0) {
      return name;
    }
    for (const char* exact : kExact) {
      if (name == exact) {
        return name;
      }
    }
  }
  return "";
}

/// Why this build must not report, or "".
std::string instrumentedBuild() {
#if defined(FLUXDIV_SCHEDULE_VERIFY) || defined(FLUXDIV_GRAPH_VERIFY) ||     \
    defined(FLUXDIV_COMM_VERIFY) || defined(FLUXDIV_KERNEL_VERIFY) ||        \
    defined(FLUXDIV_STEP_VERIFY) || defined(FLUXDIV_SHADOW_CHECK)
  return "a runtime verification gate is compiled in";
#else
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("build type is ") + PERFBENCH_BUILD_TYPE;
  }
  return "";
#endif
}

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string machineRecord(const Options& opt, int nproc) {
  const fluxdiv::harness::MachineInfo info = fluxdiv::harness::queryMachine();
  std::ostringstream os;
  os << "{\"record\": {\"workload\": " << jsonString(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
     << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"smoke\": " << (opt.smoke ? "true" : "false")
     << ", \"nproc\": " << nproc << ", \"threads\": " << opt.threads
     << ", \"cpu\": " << jsonString(info.cpuModel) << ", \"caches\": [";
  for (std::size_t i = 0; i < info.caches.size(); ++i) {
    const fluxdiv::harness::CacheLevel& c = info.caches[i];
    os << (i == 0 ? "" : ", ") << "{\"level\": " << c.level
       << ", \"type\": " << jsonString(c.type)
       << ", \"bytes\": " << c.sizeBytes << '}';
  }
  os << "], \"cache_fallback\": " << (info.cacheFallback ? "true" : "false")
     << ", \"compiler\": " << jsonString("gcc " __VERSION__)
     << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE) << "}}";
  return os.str();
}

/// The result line. Throws on a non-finite metric: such a run has no
/// result to report.
std::string resultLine(const Report& rep) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": "
     << (rep.failed() == 0 && rep.attempted() > 0 ? "true" : "false")
     << ", \"attempted\": " << rep.attempted()
     << ", \"failed\": " << rep.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Report::Metric& m : rep.metrics()) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    os << (first ? "" : ", ") << jsonString(m.name) << ": {\"value\": "
       << m.value << ", \"unit\": " << jsonString(m.unit) << '}';
    first = false;
  }
  os << "}}";
  return os.str();
}

int printSpecs(std::uint64_t seed, int pairs) {
  std::vector<perfbench::Batch> batches;
  for (int p = 0; p < pairs; ++p) {
    for (perfbench::Batch& batch : perfbench::mixPair(seed, p)) {
      std::cout << "# batch " << batches.size() << '\n';
      for (const fluxdiv::serve::InstanceSpec& spec : batch) {
        std::cout << perfbench::specLine(spec) << '\n';
      }
      batches.push_back(std::move(batch));
    }
  }
  std::cout << "# digest 0x" << std::hex << perfbench::specDigest(batches)
            << std::dec << '\n';
  return 0;
}

int usage(const std::string& why) {
  std::cerr << "fluxdiv_perfbench: " << why
            << "\nusage: fluxdiv_perfbench --workload box128|box16|serve-mix "
               "--seed N --seconds S --trace 0|1 [--smoke]\n"
               "       fluxdiv_perfbench --specs P --seed N\n";
  return kExitUsage;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  const int nproc = availableCores();
  opt.threads = std::min(4, nproc);
  int specPairs = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        opt.smoke = true;
        continue;
      }
      if (i + 1 >= argc) {
        return usage("missing value for " + arg);
      }
      const std::string val = argv[++i];
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (arg == "--specs") {
        specPairs = std::stoi(val);
      } else {
        return usage("unknown option " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("bad option value");
  }
  if (specPairs > 0) {
    return printSpecs(opt.seed, specPairs);
  }
  if (opt.workload != "box128" && opt.workload != "box16" &&
      opt.workload != "serve-mix") {
    return usage("unknown workload '" + opt.workload + "'");
  }
  // Never true while threads = min(4, nproc); kept so an oversubscribed
  // number can never be reported.
  if (opt.threads < 1 || opt.threads > nproc) {
    std::cerr << "fluxdiv_perfbench: refused: " << opt.threads
              << " threads on " << nproc << " available cores\n";
    return kExitRefused;
  }
  if (const std::string var = pathChangingVariable(); !var.empty()) {
    std::cerr << "fluxdiv_perfbench: refused: " << var
              << " is set and changes the executed path\n";
    return kExitRefused;
  }
  if (const std::string why = instrumentedBuild(); !why.empty()) {
    std::cerr << "fluxdiv_perfbench: refused: " << why << '\n';
    return kExitRefused;
  }

  std::cout << machineRecord(opt, nproc) << std::endl;
  Report rep;
  try {
    if (opt.workload == "serve-mix") {
      perfbench::runServeMixWorkload(opt, rep);
    } else {
      const int side = opt.smoke ? 32 : 128;
      const int box = opt.workload == "box128" ? side : (opt.smoke ? 8 : 16);
      perfbench::runLevelWorkload(side, box, opt, rep);
    }
    for (const Report::Metric& m : rep.metrics()) {
      std::cout << "  " << std::left << std::setw(34) << m.name << ' '
                << std::setprecision(6) << m.value << ' ' << m.unit << '\n';
    }
    std::cout << "  failed_frac " << rep.failed() << '/' << rep.attempted()
              << " output checks\n";
    std::cout << resultLine(rep) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "fluxdiv_perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
