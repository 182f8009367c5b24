// Host-time probe for the repository benchmark.
//
// A traced run records one span per call into a layer's public entry point
// (plus the setup phases and the benchmark's own callbacks that run inside
// FluidSimulator::Step).  Spans stay in memory and are written once, when
// the workload ends.  Each span also notes how much solver wall time
// (SolverStats::solve_ns) passed inside it, so self time can be split into
// "this layer" and "the fluid solver it triggered".
//
// With tracing off every Scope is a no-op branch and nothing is recorded.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/fluid.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Resident set size right now (not the peak), in MiB.
inline double CurrentRssMib() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

struct ProcReadings {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t minflt = 0;
  double peak_rss_mib = 0;
};

inline ProcReadings ReadProc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcReadings p;
  p.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  p.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  p.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  p.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return p;
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t solver_ns = 0;  // solver wall inside the span (incl. children)
  int parent = -1;
};

// Per-name totals over a run's spans.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  // minus children and minus solver time
};

class Probe {
 public:
  explicit Probe(bool tracing) : tracing_(tracing) {
    if (tracing_) spans_.reserve(1u << 16);
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool tracing() const { return tracing_; }

  // Solver wall time is read from `sim` while attached; detach before the
  // simulator is destroyed.
  void AttachSolver(const lmp::sim::FluidSimulator* sim) {
    base_ = frozen_;
    solver_ = sim;
  }
  void DetachSolver() {
    frozen_ = SolverNs();
    solver_ = nullptr;
  }

  class Scope {
   public:
    Scope(Probe& probe, const char* name)
        : probe_(probe.tracing_ ? &probe : nullptr) {
      if (probe_ != nullptr) index_ = probe_->Open(name);
    }
    ~Scope() {
      if (probe_ != nullptr) probe_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe* probe_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, SpanTotals> Totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    std::vector<std::uint64_t> child_solver(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      child_solver[static_cast<std::size_t>(s.parent)] += s.solver_ns;
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      SpanTotals& t = out[s.name];
      const std::int64_t dur = s.end_ns - s.start_ns;
      const auto own_solver =
          static_cast<std::int64_t>(s.solver_ns - child_solver[i]);
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i] - own_solver;
    }
    return out;
  }

  // One line per span: id, parent, name, start and end (ns from the first
  // span), solver ns inside.
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\tsolver_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\t%llu\n", i, s.parent, s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0),
                   static_cast<unsigned long long>(s.solver_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::uint64_t SolverNs() const {
    return solver_ != nullptr ? base_ + solver_->solver_stats().solve_ns
                              : frozen_;
  }

  int Open(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_;
    s.solver_ns = SolverNs();
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_ = static_cast<int>(spans_.size() - 1);
    return open_;
  }

  void Close(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = NowNs();
    s.solver_ns = SolverNs() - s.solver_ns;
    open_ = s.parent;
  }

  bool tracing_;
  std::vector<Span> spans_;
  int open_ = -1;
  const lmp::sim::FluidSimulator* solver_ = nullptr;
  std::uint64_t base_ = 0;
  std::uint64_t frozen_ = 0;
};

}  // namespace perfbench
