// Reproduces Fig. 8: throughput and latency vs the number of ordering
// service nodes, for Kafka and Raft, with #ZooKeeper = #Broker = 3 (panels
// a/b) and 7 (panels c/d).
//
// Paper's findings to confirm: neither throughput nor latency changes
// significantly when scaling OSNs up to 12, for either consenter, at either
// broker/ZooKeeper cluster size — the ordering service is not the
// bottleneck.
#include "bench_common.h"

using namespace fabricsim;

namespace {

fabric::ExperimentConfig MakeConfig(fabric::OrderingType ordering, int osns,
                                    int brokers_and_zk,
                                    const benchutil::Args& args) {
  fabric::ExperimentConfig config = fabric::StandardConfig(ordering, 0, 250);
  config.network.topology.osns = osns;
  config.network.topology.kafka_brokers = brokers_and_zk;
  config.network.topology.zookeepers = brokers_and_zk;
  config.network.topology.kafka_replication_factor =
      std::min(3, brokers_and_zk);
  benchutil::Tune(config, args);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::ParseArgs(argc, argv, "fig8_osn_scalability");
  const std::vector<int> osn_counts =
      args.quick ? std::vector<int>{4, 12} : std::vector<int>{4, 6, 8, 10, 12};

  // Raft ignores the broker/ZooKeeper axis, so each Raft point runs once,
  // at the first cluster size, and is printed in both panels.
  const std::vector<int> clusters = {3, 7};
  benchutil::Sweep sweep(args);
  for (int cluster : clusters) {
    for (int osns : osn_counts) {
      sweep.Add(MakeConfig(fabric::OrderingType::kKafka, osns, cluster, args),
                "Kafka/zk" + std::to_string(cluster) + "/osn" +
                    std::to_string(osns));
    }
  }
  for (int osns : osn_counts) {
    sweep.Add(
        MakeConfig(fabric::OrderingType::kRaft, osns, clusters.front(), args),
        "Raft/osn" + std::to_string(osns));
  }
  const auto results = sweep.Run();

  const std::size_t first_raft = clusters.size() * osn_counts.size();
  std::size_t next_kafka = 0;
  for (int cluster : clusters) {
    std::cout << "=== Fig. 8 (" << (cluster == 3 ? "a,b" : "c,d")
              << "): #ZooKeeper = #Broker = " << cluster
              << ", arrival rate 250 tps ===\n";
    metrics::Table table({"#OSNs", "Kafka_tps", "Kafka_lat_s", "Raft_tps",
                          "Raft_lat_s"});
    for (std::size_t i = 0; i < osn_counts.size(); ++i) {
      const auto& kafka = results[next_kafka++];
      const auto& raft = results[first_raft + i];
      table.AddRow(
          {std::to_string(osn_counts[i]),
           metrics::Fmt(kafka.report.end_to_end.throughput_tps, 1),
           metrics::Fmt(kafka.report.end_to_end.mean_latency_s, 2),
           metrics::Fmt(raft.report.end_to_end.throughput_tps, 1),
           metrics::Fmt(raft.report.end_to_end.mean_latency_s, 2)});
    }
    benchutil::PrintTable(table, args);
  }
  std::cout << "\nExpected shape: flat columns — ~250 tps committed and "
               "stable latency regardless of OSN count, consenter type, or "
               "broker/ZooKeeper cluster size.\n";
  return benchutil::Finish(args);
}
