// FaultPlan: a declarative, deterministic schedule of failures (§5
// "Failure domains").
//
// A plan is an ordered list of FaultEvents pinned to simulated time —
// server crashes/recoveries, link degradations/restorations/flaps, and
// correlated rack failures.  Plans come from three places: programmatic
// builders (tests), lmp::Config text (benches, `--fault-plan=`), and plan
// files under examples/.  Identical plan + seed must reproduce identical
// traces byte-for-byte, so nothing here consults wall clocks or global
// state.
//
// Text syntax: each event is one `e<N>=SPEC` pair, N counting up from 0
// with no gaps (lmp::Config values cannot contain spaces, so a SPEC is a
// single compact token):
//
//   e0=100ms:crash:s1
//   e1=150ms:degrade:s2:bw=0.25,lat=2.0
//   e2=300ms:restore:s2
//   e3=500ms:recover:s1
//   e4=600ms:flap:s3:down=10ms,count=3,period=50ms,bw=0.05,lat=4.0
//   e5=900ms:rack:s0+s1
//
// Times take ns/us/ms/s suffixes (bare numbers are ns).  `s<K>+s<M>+...`
// names a correlated group.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cluster/server.h"
#include "common/config.h"
#include "common/status.h"
#include "common/units.h"

namespace lmp::chaos {

enum class FaultKind {
  kServerCrash,
  kServerRecover,
  kLinkDegrade,
  kLinkRestore,
  kLinkFlap,  // expanded to degrade/restore pairs when scheduled
  kRackFail,  // correlated crash of every listed server
};

struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kServerCrash;
  // Victims.  Crash/recover/degrade/restore use servers[0]; rack failures
  // list the whole blast radius.
  std::vector<cluster::ServerId> servers;
  // Link health while degraded (absolute vs the healthy profile).
  double bandwidth_mult = 1.0;
  double latency_mult = 1.0;
  // Flap shape: `count` outages of `down_ns` each, starting `period_ns`
  // apart (period must exceed down).
  SimTime down_ns = 0;
  int flap_count = 0;
  SimTime period_ns = 0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // Parses plan text (see file header).  Events may be listed in any
  // order; the plan keeps them sorted by time (stable on ties).
  static StatusOr<FaultPlan> Parse(std::string_view text);
  // Reads events e0..eN from an already-parsed Config (the form benches
  // get from --fault-plan= files).
  static StatusOr<FaultPlan> FromConfig(const Config& config);
  // Loads and parses a plan file.
  static StatusOr<FaultPlan> ParseFile(const std::string& path);

  // Programmatic builders (chainable) --------------------------------------
  FaultPlan& CrashAt(SimTime at, cluster::ServerId server);
  FaultPlan& RecoverAt(SimTime at, cluster::ServerId server);
  FaultPlan& DegradeLinkAt(SimTime at, cluster::ServerId server,
                           double bandwidth_mult, double latency_mult = 1.0);
  FaultPlan& RestoreLinkAt(SimTime at, cluster::ServerId server);
  FaultPlan& FlapLinkAt(SimTime at, cluster::ServerId server, SimTime down,
                        int count, SimTime period,
                        double bandwidth_mult = 0.05,
                        double latency_mult = 4.0);
  FaultPlan& RackFailAt(SimTime at, std::vector<cluster::ServerId> servers);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  // Servers crashed by this plan (crash + rack events), deduplicated in
  // first-crash order — what bench_failure uses to pick victims.
  std::vector<cluster::ServerId> CrashVictims() const;

 private:
  void Add(FaultEvent event);  // stable insertion by event time

  std::vector<FaultEvent> events_;
};

}  // namespace lmp::chaos
