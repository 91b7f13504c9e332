// Fig. 8 and the design-choice ablations from one measurement sweep. Every
// point runs once; the panels are views of the shared results and print in
// this order:
//   Fig. 8        throughput/latency vs #OSNs for Kafka and Raft, with
//                 #ZooKeeper = #Broker = 3 (panels a/b) and 7 (c/d)
//   block cutter  BatchSize / BatchTimeout vs block time and latency (the
//                 §III defaults: BatchSize = 100, BatchTimeout = 1 s)
//   validation    VSCC pool width, signature-verification cost, serial
//                 ledger-write cost
//   ordering      Kafka replication factor, network base latency
//   channels      channel count at and below saturation, shared peers
//   tx size       value size 1 B .. 100 KiB
//   gossip        direct orderer delivery vs 2 / 4 gossip leaders
//
// Paper's findings to confirm: the ordering service is not the bottleneck
// (Fig. 8 stays flat in OSN count, consenter and cluster size; the Kafka
// replication factor is invisible) and the validate phase is (its VSCC and
// serial-write costs set the OR / AND5 ceilings, and channels over one peer
// set do not lift them).
//
// A config that several panels read is one plan entry, labelled after
// paper_sweep's "<ordering>/<policy>@<rate>" scheme (see "Shared points").
#include "bench_common.h"

using namespace fabricsim;
using fabric::OrderingType;

namespace {

fabric::ExperimentConfig Tuned(OrderingType ordering, int and_x, double rate,
                               const benchutil::Args& args) {
  fabric::ExperimentConfig config =
      fabric::StandardConfig(ordering, and_x, rate);
  benchutil::Tune(config, args);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::ParseArgs(argc, argv, "ablations");
  benchutil::Sweep sweep(args);
  // Queues a point and returns its index into the results.
  const auto add = [&](fabric::ExperimentConfig config, std::string label) {
    sweep.Add(std::move(config), std::move(label));
    return sweep.Size() - 1;
  };

  // ---- Shared points. A panel row whose tweak sets a field to the value
  // StandardConfig already gives it (BatchSize 100, BatchTimeout 1 s, 3 ms
  // per endorsement, 2 ms serial write per tx, one channel, VSCC scale 4/4)
  // has the same config as one of these entries, so it reads that entry.
  // Block cutter: BatchSize100 and BatchTimeout1.00.
  const std::size_t solo_or_150 =
      add(Tuned(OrderingType::kSolo, 0, 150, args), "Solo/OR@150");
  // Validation: vscc_cores4 and verify3.0ms/AND5.
  const std::size_t solo_and5_480 =
      add(Tuned(OrderingType::kSolo, 5, 480, args), "Solo/AND5@480");
  // Validation: verify3.0ms/OR and disk2.0ms; channels: saturating/ch1.
  const std::size_t solo_or_480 =
      add(Tuned(OrderingType::kSolo, 0, 480, args), "Solo/OR@480");

  // ---- Fig. 8. Raft ignores the broker/ZooKeeper axis, so each Raft point
  // runs once, at the first cluster size, and prints in both panels.
  const std::vector<int> osn_counts =
      args.quick ? std::vector<int>{4, 12} : std::vector<int>{4, 6, 8, 10, 12};
  const std::vector<int> clusters = {3, 7};
  const auto osn_config = [&](OrderingType ordering, int osns, int cluster) {
    fabric::ExperimentConfig config = Tuned(ordering, 0, 250, args);
    config.network.topology.osns = osns;
    config.network.topology.kafka_brokers = cluster;
    config.network.topology.zookeepers = cluster;
    config.network.topology.kafka_replication_factor = std::min(3, cluster);
    return config;
  };
  std::vector<std::size_t> fig8_kafka;  // cluster-major
  std::vector<std::size_t> fig8_raft;
  for (int cluster : clusters) {
    for (int osns : osn_counts) {
      fig8_kafka.push_back(add(osn_config(OrderingType::kKafka, osns, cluster),
                               "Kafka/zk" + std::to_string(cluster) + "/osn" +
                                   std::to_string(osns)));
    }
  }
  for (int osns : osn_counts) {
    fig8_raft.push_back(add(osn_config(OrderingType::kRaft, osns, clusters[0]),
                            "Raft/osn" + std::to_string(osns)));
  }

  // ---- Block cutter. Below BatchSize/BatchTimeout tps the timeout cuts
  // blocks (block time pinned at BatchTimeout, latency pays ~BatchTimeout/2);
  // above it the size trigger cuts (block time = BatchSize/rate).
  const std::vector<std::uint32_t> batches{10u, 50u, 100u, 200u};
  const std::vector<double> timeouts{0.25, 0.5, 1.0, 2.0};
  std::vector<std::size_t> cutter_size;
  std::vector<std::size_t> cutter_timeout;
  for (std::uint32_t batch : batches) {
    if (batch == 100) {
      cutter_size.push_back(solo_or_150);
      continue;
    }
    fabric::ExperimentConfig config =
        Tuned(OrderingType::kSolo, 0, 150, args);
    config.network.channel.batch.max_message_count = batch;
    cutter_size.push_back(add(config, "BatchSize" + std::to_string(batch)));
  }
  for (double timeout : timeouts) {
    if (timeout == 1.0) {
      cutter_timeout.push_back(solo_or_150);
      continue;
    }
    fabric::ExperimentConfig config =
        Tuned(OrderingType::kSolo, 0, 150, args);
    config.network.channel.batch.batch_timeout = sim::FromSeconds(timeout);
    cutter_timeout.push_back(
        add(config, "BatchTimeout" + metrics::Fmt(timeout, 2)));
  }

  // ---- Validation: the two halves of the validate-phase bottleneck, at a
  // saturating 480 tps. (1) The parallel VSCC stage scales with committing-
  // peer cores until the serial ledger write binds, modelled by the cost
  // equivalence "c cores at cost k = 4 cores at cost 4k/c" (capacity c/k);
  // (2) the OR-vs-AND5 gap is proportional to endorsements per tx; (3) the
  // serial ledger write sets the OR ceiling.
  const std::vector<int> core_counts{1, 2, 4, 8};
  const std::vector<double> verify_ms{1.5, 3.0, 6.0};
  const std::vector<double> disk_ms{0.5, 1.0, 2.0, 4.0};
  std::vector<std::size_t> vscc_cores;
  std::vector<std::size_t> verify;  // OR, AND5 per cost
  std::vector<std::size_t> disk;
  for (int cores : core_counts) {
    if (cores == 4) {
      vscc_cores.push_back(solo_and5_480);
      continue;
    }
    fabric::ExperimentConfig config = Tuned(OrderingType::kSolo, 5, 480, args);
    fabric::Calibration& cal = config.network.calibration;
    const double scale = 4.0 / cores;
    cal.vscc_base_cpu =
        static_cast<sim::SimDuration>(cal.vscc_base_cpu * scale);
    cal.vscc_per_endorsement_cpu =
        static_cast<sim::SimDuration>(cal.vscc_per_endorsement_cpu * scale);
    vscc_cores.push_back(add(config, "vscc_cores" + std::to_string(cores)));
  }
  for (double ms : verify_ms) {
    for (int and_x : {0, 5}) {
      if (ms == 3.0) {
        verify.push_back(and_x > 0 ? solo_and5_480 : solo_or_480);
        continue;
      }
      fabric::ExperimentConfig config =
          Tuned(OrderingType::kSolo, and_x, 480, args);
      config.network.calibration.vscc_per_endorsement_cpu =
          sim::FromMillis(ms);
      verify.push_back(add(config, "verify" + metrics::Fmt(ms, 1) + "ms/" +
                                       (and_x > 0 ? "AND5" : "OR")));
    }
  }
  for (double ms : disk_ms) {
    if (ms == 2.0) {
      disk.push_back(solo_or_480);
      continue;
    }
    fabric::ExperimentConfig config = Tuned(OrderingType::kSolo, 0, 480, args);
    config.network.calibration.block_write_per_tx_disk = sim::FromMillis(ms);
    disk.push_back(add(config, "disk" + metrics::Fmt(ms, 1) + "ms"));
  }

  // ---- Ordering sensitivity. (1) The in-sync-replica commit round is
  // invisible at ~250 tps on a 1 Gbps LAN. (2) Consensus rounds only bite
  // once the wire does: Raft pays ~1 RTT to a majority, Kafka ~2 RTTs
  // (produce + ISR).
  const std::vector<int> factors{1, 3, 5};
  const std::vector<double> base_ms{0.18, 2.0, 10.0, 40.0};
  std::vector<std::size_t> rf_points;
  std::vector<std::size_t> latency_points;  // Kafka, Raft per latency
  for (int rf : factors) {
    fabric::ExperimentConfig config =
        Tuned(OrderingType::kKafka, 0, 250, args);
    config.network.topology.kafka_brokers = 5;
    config.network.topology.kafka_replication_factor = rf;
    rf_points.push_back(add(config, "rf" + std::to_string(rf)));
  }
  for (double ms : base_ms) {
    for (OrderingType type : {OrderingType::kKafka, OrderingType::kRaft}) {
      fabric::ExperimentConfig config = Tuned(type, 0, 150, args);
      config.network.net.base_latency = sim::FromMillis(ms);
      latency_points.push_back(
          add(config, std::string(type == OrderingType::kKafka ? "Kafka"
                                                               : "Raft") +
                          "/lat" + metrics::Fmt(ms, 2) + "ms"));
    }
  }

  // ---- Channels (§II): channels parallelize ordering (one consenter per
  // channel) but not a peer-local bottleneck — every peer still validates
  // every channel's blocks through one CPU and one serial write path, so
  // the saturated ceiling stays at the validate phase's ~300 tps (OR).
  const std::vector<int> channel_counts{1, 2, 4};
  std::vector<std::size_t> saturating;
  std::vector<std::size_t> below_knee;
  for (int channels : channel_counts) {
    if (channels == 1) {
      saturating.push_back(solo_or_480);
      continue;
    }
    fabric::ExperimentConfig config = Tuned(OrderingType::kSolo, 0, 480, args);
    config.network.channels = channels;
    saturating.push_back(
        add(config, "saturating/ch" + std::to_string(channels)));
  }
  for (int channels : channel_counts) {
    fabric::ExperimentConfig config = Tuned(OrderingType::kSolo, 0, 240, args);
    config.network.channels = channels;
    below_knee.push_back(
        add(config, "below-knee/ch" + std::to_string(channels)));
  }

  // ---- Transaction size (the paper fixes 1-byte values): larger values
  // inflate every wire message and the block-hash / ledger-write work.
  // 100 KiB values saturate the wire far below the validate ceiling, so
  // that point offers less load (and a shorter window, for wall time) to
  // keep its latency a steady-state one.
  const std::vector<std::size_t> sizes{1, 1024, 10 * 1024, 100 * 1024};
  const auto txsize_rate = [](std::size_t size) {
    return size >= 100 * 1024 ? 40.0 : 200.0;
  };
  std::vector<std::size_t> txsize_points;
  for (std::size_t size : sizes) {
    fabric::ExperimentConfig config =
        Tuned(OrderingType::kSolo, 0, txsize_rate(size), args);
    config.workload.value_size = size;
    if (size >= 100 * 1024) config.workload.duration = sim::FromSeconds(15);
    txsize_points.push_back(
        add(config, "value" + std::to_string(size) + "B"));
  }

  // ---- Gossip: with g leader peers the orderer sends each block g times
  // instead of once per peer, at the cost of one extra dissemination hop.
  const std::vector<std::pair<int, std::string>> gossip_modes{
      {0, "direct (11 subscribers)"},
      {2, "gossip (2 leaders)"},
      {4, "gossip (4 leaders)"}};
  std::vector<std::size_t> gossip_points;
  for (const auto& [leaders, label] : gossip_modes) {
    fabric::ExperimentConfig config = Tuned(OrderingType::kSolo, 0, 250, args);
    config.network.gossip = leaders > 0;
    if (leaders > 0) config.network.gossip_leaders = leaders;
    gossip_points.push_back(add(config, label));
  }

  const auto results = sweep.Run();
  const auto report = [&](std::size_t i) -> const metrics::Report& {
    return results[i].report;
  };
  const auto tps = [&](std::size_t i) {
    return metrics::Fmt(report(i).end_to_end.throughput_tps, 1);
  };
  const auto e2e_latency = [&](std::size_t i) {
    return metrics::Fmt(report(i).end_to_end.mean_latency_s, 2);
  };
  const auto wire_mb = [&](std::size_t i) {
    return metrics::Fmt(static_cast<double>(results[i].bytes_sent) / 1e6, 0);
  };

  for (std::size_t c = 0; c < clusters.size(); ++c) {
    std::cout << "=== Fig. 8 (" << (clusters[c] == 3 ? "a,b" : "c,d")
              << "): #ZooKeeper = #Broker = " << clusters[c]
              << ", arrival rate 250 tps ===\n";
    metrics::Table table({"#OSNs", "Kafka_tps", "Kafka_lat_s", "Raft_tps",
                          "Raft_lat_s"});
    for (std::size_t i = 0; i < osn_counts.size(); ++i) {
      const std::size_t kafka = fig8_kafka[c * osn_counts.size() + i];
      table.AddRow({std::to_string(osn_counts[i]), tps(kafka),
                    e2e_latency(kafka), tps(fig8_raft[i]),
                    e2e_latency(fig8_raft[i])});
    }
    benchutil::PrintTable(table, args);
  }
  std::cout << "\nExpected shape: flat columns — ~250 tps committed and "
               "stable latency regardless of OSN count, consenter type, or "
               "broker/ZooKeeper cluster size.\n";

  // The block time / block size / latency columns of both cutter tables.
  const auto cutter_row = [&](std::string knob, std::size_t i) {
    const metrics::Report& r = report(i);
    return std::vector<std::string>{std::move(knob),
                                    metrics::Fmt(r.mean_block_time_s, 2),
                                    metrics::Fmt(r.mean_block_size, 1),
                                    e2e_latency(i)};
  };
  std::cout << "=== Ablation: block cutter (Solo, OR, 150 tps) ===\n";
  std::cout << "--- BatchSize sweep (BatchTimeout = 1 s) ---\n";
  metrics::Table size_table(
      {"BatchSize", "block_time_s", "mean_block_txs", "e2e_latency_s"});
  for (std::size_t i = 0; i < batches.size(); ++i) {
    size_table.AddRow(cutter_row(std::to_string(batches[i]), cutter_size[i]));
  }
  benchutil::PrintTable(size_table, args);
  std::cout << "--- BatchTimeout sweep (BatchSize = 100) ---\n";
  metrics::Table timeout_table(
      {"BatchTimeout_s", "block_time_s", "mean_block_txs", "e2e_latency_s"});
  for (std::size_t i = 0; i < timeouts.size(); ++i) {
    timeout_table.AddRow(
        cutter_row(metrics::Fmt(timeouts[i], 2), cutter_timeout[i]));
  }
  benchutil::PrintTable(timeout_table, args);
  std::cout << "\nExpected shape: at 150 tps, small BatchSize cuts early "
               "(low block time, low latency, more blocks); BatchTimeout "
               "governs block time only while blocks do not fill "
               "(150 tps < 100/timeout), and latency tracks ~timeout/2.\n";

  std::cout << "=== Ablation: validate-phase design choices ===\n";
  std::cout << "--- (1) VSCC worker-pool width: peak tps vs committing-peer "
               "cores (AND5) ---\n";
  metrics::Table pool_table({"vscc_cores", "peak_tps"});
  for (std::size_t i = 0; i < core_counts.size(); ++i) {
    pool_table.AddRow({std::to_string(core_counts[i]), tps(vscc_cores[i])});
  }
  benchutil::PrintTable(pool_table, args);
  std::cout << "--- (2) Signature-verification cost: peak tps, OR vs AND5 "
               "---\n";
  metrics::Table sig_table({"verify_ms_per_endorsement", "OR_tps", "AND5_tps"});
  for (std::size_t i = 0; i < verify_ms.size(); ++i) {
    sig_table.AddRow({metrics::Fmt(verify_ms[i], 1), tps(verify[2 * i]),
                      tps(verify[2 * i + 1])});
  }
  benchutil::PrintTable(sig_table, args);
  std::cout << "--- (3) Serial ledger-write cost: peak tps under OR ---\n";
  metrics::Table disk_table({"block_write_ms_per_tx", "OR_peak_tps"});
  for (std::size_t i = 0; i < disk_ms.size(); ++i) {
    disk_table.AddRow({metrics::Fmt(disk_ms[i], 1), tps(disk[i])});
  }
  benchutil::PrintTable(disk_table, args);
  std::cout << "\nExpected shape: (1) AND5 peak scales with cores until the "
               "serial floor (~300 tps); (2) AND5 is ~x5 more sensitive to "
               "verification cost than OR; (3) the OR ceiling moves inversely "
               "with the serial write cost.\n";

  std::cout << "=== Ablation: ordering service ===\n";
  std::cout << "--- (1) Kafka replication factor (5 brokers, 250 tps) ---\n";
  metrics::Table rf_table({"replication_factor", "tps", "e2e_latency_s",
                           "order_latency_s"});
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const std::size_t p = rf_points[i];
    rf_table.AddRow({std::to_string(factors[i]), tps(p), e2e_latency(p),
                     metrics::Fmt(report(p).order.mean_latency_s, 3)});
  }
  benchutil::PrintTable(rf_table, args);
  std::cout << "--- (2) Network base latency (Kafka vs Raft, 150 tps) ---\n";
  metrics::Table lat_table({"base_latency_ms", "Kafka_order_s", "Raft_order_s",
                            "Kafka_e2e_s", "Raft_e2e_s"});
  for (std::size_t i = 0; i < base_ms.size(); ++i) {
    const std::size_t kafka = latency_points[2 * i];
    const std::size_t raft = latency_points[2 * i + 1];
    lat_table.AddRow({metrics::Fmt(base_ms[i], 2),
                      metrics::Fmt(report(kafka).order.mean_latency_s, 3),
                      metrics::Fmt(report(raft).order.mean_latency_s, 3),
                      e2e_latency(kafka), e2e_latency(raft)});
  }
  benchutil::PrintTable(lat_table, args);
  std::cout << "\nExpected shape: (1) replication factor changes nothing "
               "measurable at LAN latencies (the paper's Kafka finding); "
               "(2) only at tens of milliseconds of base latency do the "
               "consensus rounds become visible in the order phase.\n";

  std::cout << "=== Ablation: channels vs throughput (Solo, OR, saturating "
               "load, shared peers) ===\n";
  metrics::Table channel_table({"channels", "offered_tps", "committed_tps",
                                "e2e_latency_s"});
  for (std::size_t i = 0; i < channel_counts.size(); ++i) {
    channel_table.AddRow({std::to_string(channel_counts[i]),
                          metrics::Fmt(480, 0), tps(saturating[i]),
                          e2e_latency(saturating[i])});
  }
  benchutil::PrintTable(channel_table, args);
  std::cout << "--- Below the validate ceiling: channels split load "
               "cleanly (240 tps total) ---\n";
  metrics::Table low_table({"channels", "committed_tps", "e2e_latency_s"});
  for (std::size_t i = 0; i < channel_counts.size(); ++i) {
    low_table.AddRow({std::to_string(channel_counts[i]), tps(below_knee[i]),
                      e2e_latency(below_knee[i])});
  }
  benchutil::PrintTable(low_table, args);
  std::cout << "\nExpected shape: committed throughput stays ~300 tps at "
               "saturation regardless of channel count — the validate phase "
               "is a per-peer bottleneck, not a per-channel one.\n";

  std::cout << "=== Ablation: value size (Solo, OR) ===\n";
  metrics::Table value_table({"value_bytes", "offered_tps", "committed_tps",
                              "e2e_latency_s", "MB_on_wire", "block_time_s"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t p = txsize_points[i];
    value_table.AddRow({std::to_string(sizes[i]),
                        metrics::Fmt(txsize_rate(sizes[i]), 0), tps(p),
                        e2e_latency(p), wire_mb(p),
                        metrics::Fmt(report(p).mean_block_time_s, 2)});
  }
  benchutil::PrintTable(value_table, args);
  std::cout << "\nExpected shape: negligible impact through ~1 KiB. From "
               "~10 KiB, PreferredMaxBytes cuts blocks early (block time "
               "and latency drop, blocks shrink); at 100 KiB the wire "
               "volume dominates — 200 tps would exceed the 1 Gbps fabric, "
               "which is why the offered rate is lowered to keep the system "
               "in steady state.\n";

  std::cout << "=== Ablation: gossip dissemination (Solo, OR, 250 tps, "
               "10 peers) ===\n";
  metrics::Table gossip_table({"mode", "committed_tps", "e2e_latency_s",
                               "validate_latency_s", "total_MB_on_wire"});
  for (std::size_t i = 0; i < gossip_modes.size(); ++i) {
    const std::size_t p = gossip_points[i];
    gossip_table.AddRow(
        {gossip_modes[i].second, tps(p), e2e_latency(p),
         metrics::Fmt(report(p).validate.mean_latency_s, 2), wire_mb(p)});
  }
  benchutil::PrintTable(gossip_table, args);
  std::cout << "\nExpected shape: identical throughput; gossip adds a small "
               "dissemination delay to the validate latency (commit events "
               "come from a non-leader peer) and shifts wire bytes from the "
               "orderer to the peers without changing the total much (same "
               "blocks traverse the LAN).\n";
  return benchutil::Finish(args);
}
