#include "stream/stream_sim.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/histogram.h"
#include "obs/events.h"

namespace rfh {

StreamSimulator::StreamSimulator(const World& world, MetricRegistry* registry,
                                 const StreamConfig& config,
                                 std::uint64_t seed)
    : world_(&world),
      registry_(registry),
      config_(config),
      arrivals_(seed),
      queue_(0, StreamConfig::kServiceTimeMs, config.queue_cap) {
  const std::size_t dcs = world.topology.datacenter_count();
  per_server_.resize(world.topology.server_count());
  dc_totals_.resize(dcs, 0.0);
  by_dc_.resize(dcs);
  dc_depth_.resize(dcs, 0);

  if (registry_ == nullptr) return;
  arrivals_total_ = &registry_->counter(
      "rfh_stream_arrivals_total", {},
      "Timestamped query arrivals processed by the stream layer");
  served_total_ = &registry_->counter(
      "rfh_stream_served_total", {},
      "Arrivals accepted by a server queue and served");
  blocked_total_ = &registry_->counter(
      "rfh_stream_blocked_total", {},
      "Arrivals blocked by the batch engine before reaching a queue");
  dropped_total_ = &registry_->counter(
      "rfh_dropped_backpressure_total", {},
      "Arrivals dropped because a server's waiting room was at --queue-cap");
  queue_depth_ = &registry_->gauge(
      "rfh_queue_depth", {},
      "Largest waiting-room occupancy observed in the last epoch");
  for (std::size_t d = 0; d < dcs; ++d) {
    const std::string& name =
        world.topology.datacenter(DatacenterId{static_cast<std::uint32_t>(d)})
            .name;
    dropped_by_dc_.push_back(&registry_->counter(
        "rfh_dropped_backpressure_total", {{"dc", name}},
        "Arrivals dropped because a server's waiting room was at "
        "--queue-cap"));
    queue_depth_by_dc_.push_back(&registry_->gauge(
        "rfh_queue_depth", {{"dc", name}},
        "Largest waiting-room occupancy observed in the last epoch"));
    latency_by_dc_.push_back(&registry_->histogram(
        "rfh_stream_latency_ms", {{"dc", name}},
        "End-to-end query latency (routing + queueing + blocking penalty) "
        "by requester datacenter"));
  }
}

StreamEpochStats StreamSimulator::process_epoch(Simulation& sim,
                                                const EpochReport& report) {
  const Epoch epoch = report.epoch;
  const std::vector<FlowSegment>& segments = flow_log_.segments();
  const std::size_t dcs = dc_totals_.size();

  StreamEpochStats stats;
  stats.epoch = epoch;

  // --- group segments by requester DC ---------------------------------
  std::fill(dc_totals_.begin(), dc_totals_.end(), 0.0);
  for (std::vector<std::size_t>& idxs : by_dc_) idxs.clear();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const FlowSegment& seg = segments[i];
    RFH_ASSERT(seg.requester.valid() && seg.requester.value() < dcs);
    dc_totals_[seg.requester.value()] += seg.queries;
    by_dc_[seg.requester.value()].push_back(i);
    stats.arrivals += seg.queries;
  }

  // --- disaggregate each DC's total into timestamped arrivals ---------
  // One timestamp stream per (epoch, DC): n = round(total) arrivals of
  // equal weight total/n, allocated to the DC's segments in engine order
  // by cumulative rounding (so every segment gets its proportional share
  // and the counts sum to exactly n).
  Histogram epoch_hist;
  double wait_sum = 0.0;
  double wait_weight = 0.0;
  std::uint64_t seq = 0;

  const auto sample = [&](DatacenterId requester, double latency_ms,
                          double weight) {
    epoch_hist.add(weight, latency_ms);
    if (!latency_by_dc_.empty()) {
      latency_by_dc_[requester.value()]->observe(latency_ms, weight);
    }
  };

  for (std::size_t d = 0; d < dcs; ++d) {
    const double total = dc_totals_[d];
    if (total <= 0.0) continue;
    long long n = std::llround(total);
    if (n <= 0) n = 1;
    const double weight = total / static_cast<double>(n);
    arrivals_.timestamps_into(epoch,
                              DatacenterId{static_cast<std::uint32_t>(d)},
                              static_cast<std::size_t>(n), timestamps_);
    const std::vector<double>& ts = timestamps_;

    double acc = 0.0;
    std::size_t next = 0;
    const std::vector<std::size_t>& idxs = by_dc_[d];
    for (std::size_t k = 0; k < idxs.size(); ++k) {
      const FlowSegment& seg = segments[idxs[k]];
      const long long lo = std::llround(acc / weight);
      acc += seg.queries;
      // The last segment absorbs any rounding residue so the allocation
      // always consumes exactly n timestamps.
      const long long hi =
          (k + 1 == idxs.size()) ? n : std::llround(acc / weight);
      for (long long c = lo; c < hi && next < ts.size(); ++c) {
        const double t = ts[next++];
        if (seg.server.valid()) {
          per_server_[seg.server.value()].push_back(QueuedArrival{
              t, seq++, weight, seg.latency_ms, seg.requester});
        } else {
          stats.blocked += weight;
          if (seg.latency_ms >= 0.0) {
            // Batch-blocked residual: same penalized latency sample the
            // batch histogram records.
            sample(seg.requester, seg.latency_ms, weight);
          }
          // else lost primary: unserved with no latency sample, exactly
          // like batch mode.
        }
      }
    }
  }

  // --- queue every served arrival at its server ------------------------
  // Servers in id order, arrivals in (t, seq) order: fully deterministic.
  // Queues start empty each epoch — a 10 s epoch is ~7 mean service
  // times, so carry-over is negligible and epochs stay independent.
  const double cv_factor = 1.0 + config_.service_cv * config_.service_cv;
  std::fill(dc_depth_.begin(), dc_depth_.end(), 0u);
  const std::size_t servers = per_server_.size();
  for (std::size_t sid = 0; sid < servers; ++sid) {
    std::vector<QueuedArrival>& list = per_server_[sid];
    if (list.empty()) continue;
    std::sort(list.begin(), list.end(),
              [](const QueuedArrival& a, const QueuedArrival& b) {
                return a.t != b.t ? a.t < b.t : a.seq < b.seq;
              });
    const Server& server =
        world_->topology.server(ServerId{static_cast<std::uint32_t>(sid)});
    queue_.reset(server.spec.service_channels);
    double dropped_here = 0.0;
    for (const QueuedArrival& a : list) {
      const ServerQueue::Outcome out = queue_.offer(a.t);
      if (out.accepted) {
        // M/D/c simulated wait, corrected to M/G/c by the Allen-Cunneen
        // factor (see erlang_mgc_mean_wait): W(M/D/c) ~= W(M/M/c)/2 and
        // W(M/G/c) ~= W(M/M/c)(1+cv^2)/2, so the ratio is (1+cv^2).
        const double wait_ms = out.wait_ms * cv_factor;
        stats.served += a.weight;
        wait_sum += wait_ms * a.weight;
        wait_weight += a.weight;
        sample(a.requester, a.route_latency_ms + wait_ms, a.weight);
      } else {
        stats.dropped += a.weight;
        dropped_here += a.weight;
      }
    }
    const std::uint32_t depth = queue_.max_depth();
    stats.max_queue_depth = std::max(stats.max_queue_depth, depth);
    const std::uint32_t dc = server.datacenter.value();
    dc_depth_[dc] = std::max(dc_depth_[dc], depth);
    if (dropped_here > 0.0) {
      if (dropped_total_ != nullptr) {
        dropped_total_->inc(dropped_here);
        dropped_by_dc_[dc]->inc(dropped_here);
      }
      sim.events().emit(QueueSaturated{
          epoch, ServerId{static_cast<std::uint32_t>(sid)}, server.datacenter,
          depth, config_.queue_cap, dropped_here});
    }
    list.clear();
  }

  stats.mean_wait_ms = wait_weight > 0.0 ? wait_sum / wait_weight : 0.0;
  stats.p50_ms = epoch_hist.percentile(0.5);
  stats.p99_ms = epoch_hist.percentile(0.99);
  stats.p999_ms = epoch_hist.percentile(0.999);

  if (registry_ != nullptr) {
    arrivals_total_->inc(stats.arrivals);
    served_total_->inc(stats.served);
    blocked_total_->inc(stats.blocked);
    queue_depth_->set(stats.max_queue_depth);
    for (std::size_t d = 0; d < dcs; ++d) {
      queue_depth_by_dc_[d]->set(dc_depth_[d]);
    }
  }

  sim.events().emit(StreamEpochSummary{epoch, stats.arrivals, stats.served,
                                       stats.blocked, stats.dropped,
                                       stats.max_queue_depth,
                                       stats.mean_wait_ms});
  return stats;
}

}  // namespace rfh
