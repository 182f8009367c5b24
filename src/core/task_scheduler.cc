#include "core/task_scheduler.h"

#include "common/logging.h"
#include "common/trace.h"

namespace lmp::core {

TaskScheduler::TaskScheduler(sim::FluidSimulator* sim,
                             fabric::Topology* topology,
                             int slots_per_server)
    : sim_(sim), topology_(topology) {
  LMP_CHECK(sim != nullptr && topology != nullptr);
  const int slots = slots_per_server > 0
                        ? slots_per_server
                        : topology->machine().cores_per_server;
  servers_.resize(topology->num_servers());
  for (auto& s : servers_) s.slot_busy.assign(slots, false);
}

Status TaskScheduler::Submit(ComputeTask task, DoneCallback on_done) {
  if (task.target >= servers_.size()) {
    return InvalidArgumentError("no such server");
  }
  if (task.input_bytes < 0 || task.compute_ns < 0) {
    return InvalidArgumentError("negative task cost");
  }
  ++stats_.submitted;
  if (first_submit_ < 0) first_submit_ = sim_->now();
  servers_[task.target].queue.push_back(
      Pending{std::move(task), std::move(on_done)});
  TryDispatch(task.target);
  return Status::Ok();
}

void TaskScheduler::TryDispatch(cluster::ServerId server) {
  ServerState& state = servers_[server];
  while (!state.queue.empty()) {
    int slot = -1;
    for (std::size_t i = 0; i < state.slot_busy.size(); ++i) {
      if (!state.slot_busy[i]) {
        slot = static_cast<int>(i);
        break;
      }
    }
    if (slot < 0) return;  // all slots busy; a Finish will re-dispatch
    Pending pending = std::move(state.queue.front());
    state.queue.pop_front();
    state.slot_busy[slot] = true;
    RunOn(server, slot, std::move(pending));
  }
}

std::uint64_t TaskScheduler::TaskTrack(cluster::ServerId server,
                                       int slot) const {
  const auto slots = static_cast<std::uint64_t>(
      servers_.empty() ? 0 : servers_[0].slot_busy.size());
  return (std::uint64_t{1} << 40) +
         static_cast<std::uint64_t>(server) * slots +
         static_cast<std::uint64_t>(slot);
}

void TaskScheduler::RunOn(cluster::ServerId server, int slot,
                          Pending pending) {
  const auto target = static_cast<fabric::ServerIndex>(server);
  const double input_bytes = pending.task.input_bytes;
  if (trace_ != nullptr) {
    trace_->Begin(trace::Category::kTask, "task", TaskTrack(server, slot),
                  sim_->now(),
                  {trace::Arg("server", static_cast<std::uint64_t>(server)),
                   trace::Arg("slot", slot),
                   trace::Arg("input_bytes", input_bytes),
                   trace::Arg("compute_ns", pending.task.compute_ns)});
  }
  auto p = std::make_shared<Pending>(std::move(pending));
  // Phase 2 (after input arrives): occupy the slot for the compute time.
  auto continue_to_compute = [this, server, slot, p](SimTime) {
    sim_->ScheduleAfter(p->task.compute_ns,
                        [this, server, slot, p](SimTime) {
                          Finish(server, slot, *p);
                        });
  };
  if (input_bytes <= 0) {
    continue_to_compute(sim_->now());
    return;
  }
  // Phase 1: stream the input from local DRAM on this slot's core.
  sim_->StartFlow(input_bytes, topology_->LocalPath(target, slot),
                  [this, cont = std::move(continue_to_compute)](sim::FlowId f,
                                                                SimTime t) {
                    // Nothing reads these records; retire them so long
                    // schedules run in bounded memory.
                    (void)sim_->ReleaseRecord(f);
                    cont(t);
                  });
}

void TaskScheduler::Drain() {
  while (stats_.completed < stats_.submitted) {
    LMP_CHECK(sim_->Step()) << "simulator idle with tasks outstanding";
  }
}

void TaskScheduler::Finish(cluster::ServerId server, int slot,
                           Pending& pending) {
  if (trace_ != nullptr) {
    trace_->End(trace::Category::kTask, "task", TaskTrack(server, slot),
                sim_->now());
  }
  servers_[server].slot_busy[slot] = false;
  ++stats_.completed;
  stats_.makespan = sim_->now() - first_submit_;
  if (pending.on_done) pending.on_done(pending.task, sim_->now());
  TryDispatch(server);
}

int TaskScheduler::BusySlots(cluster::ServerId server) const {
  LMP_CHECK(server < servers_.size());
  int busy = 0;
  for (bool b : servers_[server].slot_busy) busy += b ? 1 : 0;
  return busy;
}

std::size_t TaskScheduler::QueuedTasks(cluster::ServerId server) const {
  LMP_CHECK(server < servers_.size());
  return servers_[server].queue.size();
}

}  // namespace lmp::core
