#include "chaos/fault_plan.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

namespace lmp::chaos {

namespace {

// "100ms" / "2s" / "500" (ns) -> SimTime.  Rejects negatives and garbage.
StatusOr<SimTime> ParseTime(std::string_view token) {
  double value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || value < 0) {
    return InvalidArgumentError("bad time value '" + std::string(token) +
                                "'");
  }
  const std::string_view suffix(ptr, static_cast<std::size_t>(end - ptr));
  if (suffix.empty() || suffix == "ns") return value;
  if (suffix == "us") return value * 1e3;
  if (suffix == "ms") return value * 1e6;
  if (suffix == "s") return value * 1e9;
  return InvalidArgumentError("bad time suffix '" + std::string(suffix) +
                              "'");
}

StatusOr<double> ParseDouble(std::string_view token) {
  double value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return InvalidArgumentError("bad number '" + std::string(token) + "'");
  }
  return value;
}

// "s3" -> 3.
StatusOr<cluster::ServerId> ParseServer(std::string_view token) {
  if (token.size() < 2 || token[0] != 's') {
    return InvalidArgumentError("bad server '" + std::string(token) +
                                "' (want s<N>)");
  }
  std::uint32_t id = 0;
  auto [ptr, ec] =
      std::from_chars(token.data() + 1, token.data() + token.size(), id);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return InvalidArgumentError("bad server '" + std::string(token) + "'");
  }
  return static_cast<cluster::ServerId>(id);
}

std::vector<std::string_view> SplitOn(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    const std::size_t pos = s.find(sep);
    parts.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return parts;
}

// "bw=0.25,lat=2.0,down=10ms,count=3,period=50ms" applied onto `event`.
Status ApplyParams(std::string_view params, FaultEvent* event) {
  for (std::string_view kv : SplitOn(params, ',')) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgumentError("bad param '" + std::string(kv) +
                                  "' (want key=value)");
    }
    const std::string_view key = kv.substr(0, eq);
    const std::string_view value = kv.substr(eq + 1);
    if (key == "bw") {
      LMP_ASSIGN_OR_RETURN(event->bandwidth_mult, ParseDouble(value));
    } else if (key == "lat") {
      LMP_ASSIGN_OR_RETURN(event->latency_mult, ParseDouble(value));
    } else if (key == "down") {
      LMP_ASSIGN_OR_RETURN(event->down_ns, ParseTime(value));
    } else if (key == "period") {
      LMP_ASSIGN_OR_RETURN(event->period_ns, ParseTime(value));
    } else if (key == "count") {
      LMP_ASSIGN_OR_RETURN(const double count, ParseDouble(value));
      event->flap_count = static_cast<int>(count);
    } else {
      return InvalidArgumentError("unknown param '" + std::string(key) +
                                  "'");
    }
  }
  return Status::Ok();
}

// TARGET is "s<K>[+s<M>...]".
Status ApplyTarget(std::string_view target, FaultEvent* event) {
  for (std::string_view one : SplitOn(target, '+')) {
    LMP_ASSIGN_OR_RETURN(const cluster::ServerId id, ParseServer(one));
    event->servers.push_back(id);
  }
  return Status::Ok();
}

StatusOr<FaultEvent> ParseSpec(std::string_view spec) {
  const std::vector<std::string_view> parts = SplitOn(spec, ':');
  if (parts.size() < 2) {
    return InvalidArgumentError("bad event '" + std::string(spec) +
                                "' (want TIME:KIND[:TARGET[:PARAMS]])");
  }
  FaultEvent event;
  LMP_ASSIGN_OR_RETURN(event.at, ParseTime(parts[0]));
  const std::string_view kind = parts[1];
  if (kind == "crash") {
    event.kind = FaultKind::kServerCrash;
  } else if (kind == "recover") {
    event.kind = FaultKind::kServerRecover;
  } else if (kind == "degrade") {
    event.kind = FaultKind::kLinkDegrade;
  } else if (kind == "restore") {
    event.kind = FaultKind::kLinkRestore;
  } else if (kind == "flap") {
    event.kind = FaultKind::kLinkFlap;
  } else if (kind == "rack") {
    event.kind = FaultKind::kRackFail;
  } else {
    return InvalidArgumentError("unknown fault kind '" + std::string(kind) +
                                "'");
  }
  if (parts.size() >= 3) LMP_RETURN_IF_ERROR(ApplyTarget(parts[2], &event));
  if (parts.size() >= 4) LMP_RETURN_IF_ERROR(ApplyParams(parts[3], &event));
  if (parts.size() > 4) {
    return InvalidArgumentError("trailing fields in '" + std::string(spec) +
                                "'");
  }

  // Per-kind validation, so a bad plan fails at parse time rather than
  // halfway through a sweep.
  switch (event.kind) {
    case FaultKind::kServerCrash:
    case FaultKind::kServerRecover:
      if (event.servers.size() != 1) {
        return InvalidArgumentError("crash/recover wants exactly one s<N>");
      }
      break;
    case FaultKind::kLinkDegrade:
      if (event.servers.size() != 1) {
        return InvalidArgumentError("degrade wants one s<N>");
      }
      if (event.bandwidth_mult <= 0.0 || event.bandwidth_mult > 1.0 ||
          event.latency_mult < 1.0) {
        return InvalidArgumentError(
            "degrade wants bw in (0,1] and lat >= 1");
      }
      break;
    case FaultKind::kLinkRestore:
      if (event.servers.size() != 1) {
        return InvalidArgumentError("restore wants one s<N>");
      }
      break;
    case FaultKind::kLinkFlap:
      if (event.servers.size() != 1) {
        return InvalidArgumentError("flap wants exactly one s<N>");
      }
      if (event.flap_count <= 0 || event.down_ns <= 0 ||
          event.period_ns <= event.down_ns) {
        return InvalidArgumentError(
            "flap wants count>0, down>0, period>down");
      }
      break;
    case FaultKind::kRackFail:
      if (event.servers.empty()) {
        return InvalidArgumentError("rack wants s<K>+s<M>+...");
      }
      break;
  }
  return event;
}

}  // namespace

void FaultPlan::Add(FaultEvent event) {
  // Stable by time: ties keep insertion order, so a plan file's listing
  // order is the execution order within one instant.
  auto pos = std::upper_bound(
      events_.begin(), events_.end(), event.at,
      [](SimTime at, const FaultEvent& e) { return at < e.at; });
  events_.insert(pos, std::move(event));
}

StatusOr<FaultPlan> FaultPlan::FromConfig(const Config& config) {
  FaultPlan plan;
  for (int i = 0;; ++i) {
    const std::string key = "e" + std::to_string(i);
    if (!config.Has(key)) break;
    LMP_ASSIGN_OR_RETURN(const std::string spec, config.GetString(key));
    auto event_or = ParseSpec(spec);
    if (!event_or.ok()) {
      return Status(event_or.status().code(),
                    key + ": " + event_or.status().message());
    }
    plan.Add(std::move(event_or).value());
  }
  return plan;
}

StatusOr<FaultPlan> FaultPlan::Parse(std::string_view text) {
  LMP_ASSIGN_OR_RETURN(const Config config, Config::Parse(text));
  return FromConfig(config);
}

StatusOr<FaultPlan> FaultPlan::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open fault plan '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return Parse(text.str());
}

FaultPlan& FaultPlan::CrashAt(SimTime at, cluster::ServerId server) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kServerCrash;
  e.servers = {server};
  Add(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::RecoverAt(SimTime at, cluster::ServerId server) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kServerRecover;
  e.servers = {server};
  Add(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::DegradeLinkAt(SimTime at, cluster::ServerId server,
                                    double bandwidth_mult,
                                    double latency_mult) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkDegrade;
  e.servers = {server};
  e.bandwidth_mult = bandwidth_mult;
  e.latency_mult = latency_mult;
  Add(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::RestoreLinkAt(SimTime at, cluster::ServerId server) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkRestore;
  e.servers = {server};
  Add(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::FlapLinkAt(SimTime at, cluster::ServerId server,
                                 SimTime down, int count, SimTime period,
                                 double bandwidth_mult, double latency_mult) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkFlap;
  e.servers = {server};
  e.down_ns = down;
  e.flap_count = count;
  e.period_ns = period;
  e.bandwidth_mult = bandwidth_mult;
  e.latency_mult = latency_mult;
  Add(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::RackFailAt(SimTime at,
                                 std::vector<cluster::ServerId> servers) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kRackFail;
  e.servers = std::move(servers);
  Add(std::move(e));
  return *this;
}

std::vector<cluster::ServerId> FaultPlan::CrashVictims() const {
  std::vector<cluster::ServerId> victims;
  for (const FaultEvent& e : events_) {
    if (e.kind != FaultKind::kServerCrash && e.kind != FaultKind::kRackFail) {
      continue;
    }
    for (cluster::ServerId s : e.servers) {
      if (std::find(victims.begin(), victims.end(), s) == victims.end()) {
        victims.push_back(s);
      }
    }
  }
  return victims;
}

}  // namespace lmp::chaos
