// SpanStream: a sequence of dependent transfers over a FluidSimulator.
//
// Models one hardware context (a core, a DMA engine) working through an
// ordered list of memory spans: span i+1 starts only when span i finishes.
// The vector-sum microbenchmark runs 14 of these concurrently, one per core,
// each walking its slice of the vector (local spans at DRAM speed, remote
// spans through the fabric link).  Streams carry bulk traffic only: the
// request/op engine (src/ops) prices its small accesses in closed form and
// never starts a flow.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/fluid.h"

namespace lmp::sim {

struct Span {
  double bytes = 0;
  Path path;
  double weight = 1.0;  // weighted max-min share under contention

  friend bool operator==(const Span& a, const Span& b) {
    return a.bytes == b.bytes && a.path == b.path && a.weight == b.weight;
  }
};

class SpanStream {
 public:
  using CompletionCallback = std::function<void(SpanStream&)>;

  // The stream registers its own continuation callbacks with `sim`; the
  // object must outlive the simulation run.  Completed span records are
  // released back to the simulator (the stream tracks its own start/end
  // times), so long runs stay bounded by the number of in-flight spans.
  SpanStream(FluidSimulator* sim, std::vector<Span> spans);

  SpanStream(const SpanStream&) = delete;
  SpanStream& operator=(const SpanStream&) = delete;

  // Completion callback, fired once when the last span finishes.  ALWAYS
  // deferred through a zero-delay timer — never invoked synchronously from
  // inside Start(), even for degenerate chains (empty span lists, zero-byte
  // spans, single-span chains) — so the callback may freely start new
  // streams, destroy this one, or re-enter the simulator.  Set before
  // Start(); a callback set on an already-done stream is also deferred.
  void set_on_complete(CompletionCallback cb);

  // Begins the first span at the simulator's current time.
  void Start();

  bool done() const { return done_; }
  SimTime start_time() const { return start_time_; }
  SimTime end_time() const { return end_time_; }
  double total_bytes() const { return total_bytes_; }
  std::size_t span_count() const { return spans_.size(); }

 private:
  void StartNext();
  void Complete();

  FluidSimulator* sim_;
  std::vector<Span> spans_;
  std::size_t next_ = 0;
  bool started_ = false;
  bool done_ = false;
  SimTime start_time_ = 0;
  SimTime end_time_ = 0;
  double total_bytes_ = 0;
  CompletionCallback on_complete_;
};

struct ParallelRunResult {
  SimTime start = 0;
  SimTime end = 0;
  double bytes = 0;
  double gbps = 0;
  // Solver work done during this run (delta of the simulator's counters).
  SolverStats solver;
};

// Starts every stream at the current simulated time, runs the simulator to
// completion, and reports the aggregate bandwidth (total bytes over the
// makespan) — the quantity the paper's Figures 2–5 plot.
ParallelRunResult RunStreams(FluidSimulator* sim,
                             std::vector<std::unique_ptr<SpanStream>> streams);

}  // namespace lmp::sim
