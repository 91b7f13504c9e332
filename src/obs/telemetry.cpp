#include "obs/telemetry.h"

#include <ostream>
#include <utility>

#include "sim/cpu.h"
#include "sim/machine.h"

namespace fabricsim::obs {

void TelemetrySampler::AddCpu(std::string name, const sim::Cpu* cpu) {
  if (cpu == nullptr) return;
  stations_.push_back({std::move(name), cpu});
}

void TelemetrySampler::AddGauge(std::string resource, std::string metric,
                                std::function<double()> fn) {
  if (!fn) return;
  gauges_.push_back({std::move(resource), std::move(metric), std::move(fn)});
}

void TelemetrySampler::Monitor(sim::Environment& env) {
  for (std::size_t i = 0; i < env.MachineCount(); ++i) {
    sim::Machine& m = env.MachineAt(i);
    AddCpu(m.Name(), &m.GetCpu());
  }
  WatchNetwork(env.Net());
}

void TelemetrySampler::WatchNetwork(sim::Network& net) {
  net.SetObserver(this);
  watching_network_ = true;
}

void TelemetrySampler::Start(sim::Scheduler& sched) {
  if (running_) return;
  sched_ = &sched;
  running_ = true;
  // Observer events: sampling must not perturb ExecutedEvents(), which the
  // bench gate compares bit-exactly.
  tick_event_ = sched_->ScheduleObserverAfter(period_, [this] { Tick(); },
                                              "telemetry/tick");
}

void TelemetrySampler::Stop() {
  if (!running_) return;
  running_ = false;
  if (sched_ != nullptr) sched_->Cancel(tick_event_);
  tick_event_ = 0;
}

void TelemetrySampler::Tick() {
  if (!running_) return;
  SampleNow(sched_->Now());
  tick_event_ = sched_->ScheduleObserverAfter(period_, [this] { Tick(); },
                                              "telemetry/tick");
}

void TelemetrySampler::SampleNow(sim::SimTime now) {
  for (const Station& st : stations_) {
    samples_.push_back(
        {now, st.name, "busy_cores", static_cast<double>(st.cpu->BusyCores())});
    samples_.push_back(
        {now, st.name, "queue_len", static_cast<double>(st.cpu->QueueLength())});
  }
  if (watching_network_) {
    samples_.push_back({now, "network", "bytes_in_flight",
                        static_cast<double>(BytesInFlight())});
  }
  if (sched_ != nullptr) {
    // The DES event-queue depth itself: a saturation signal for the host
    // loop, invisible to any per-resource gauge.
    samples_.push_back({now, "scheduler", "pending_events",
                        static_cast<double>(sched_->PendingEvents())});
  }
  for (const Gauge& g : gauges_) {
    samples_.push_back({now, g.resource, g.metric, g.fn()});
  }
}

namespace {

// Clamped decrement: never underflows even when the sampler was attached
// with messages already in flight.
void SubClamped(std::uint64_t& v, std::uint64_t n) { v -= n < v ? n : v; }

}  // namespace

void TelemetrySampler::OnSend(sim::NodeId /*from*/, sim::NodeId /*to*/,
                              std::size_t wire_bytes,
                              sim::SimTime /*deliver_at*/) {
  bytes_in_flight_ += wire_bytes;
}

void TelemetrySampler::OnDeliver(sim::NodeId /*from*/, sim::NodeId /*to*/,
                                 std::size_t wire_bytes) {
  SubClamped(bytes_in_flight_, wire_bytes);
}

void TelemetrySampler::OnDrop(sim::NodeId /*from*/, sim::NodeId /*to*/,
                              std::size_t wire_bytes) {
  SubClamped(bytes_in_flight_, wire_bytes);
}

void TelemetrySampler::WriteCsv(std::ostream& os) const {
  os << "time_s,resource,metric,value\n";
  for (const TelemetrySample& s : samples_) {
    os << sim::ToSeconds(s.t) << ',' << s.resource << ',' << s.metric << ','
       << s.value << '\n';
  }
}

}  // namespace fabricsim::obs
