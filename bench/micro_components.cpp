// Component microbenchmarks (google-benchmark): the substrate operations
// whose calibrated simulated costs DESIGN.md documents. These measure the
// *implementation's* real speed (host CPU), independent of simulated time.
#include <benchmark/benchmark.h>

#include "crypto/ca.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "ledger/block_store.h"
#include "ledger/mvcc.h"
#include "ledger/state_db.h"
#include "ordering/block_cutter.h"
#include "policy/evaluator.h"
#include "policy/parser.h"
#include "proto/transaction.h"
#include "sim/scheduler.h"

namespace {

using namespace fabricsim;

void BM_Sha256(benchmark::State& state) {
  const proto::Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(64 * 1024);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<proto::Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(proto::ToBytes("leaf-" + std::to_string(i)));
  }
  for (auto _ : state) {
    crypto::MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.Root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(10)->Arg(100)->Arg(1000);

void BM_SignVerify(benchmark::State& state) {
  const auto kp = crypto::KeyPair::Derive("bench");
  const auto msg = proto::ToBytes(std::string(500, 'x'));
  const auto sig = kp.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Verify(kp.PublicKey(), msg, sig));
  }
}
BENCHMARK(BM_SignVerify);

void BM_PolicyParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::MustParsePolicy(
        "OutOf(2,AND('A.peer','B.peer'),'C.peer',OR('D.peer','E.peer'))"));
  }
}
BENCHMARK(BM_PolicyParse);

// Satisfied over three policy shapes: OutOf(3 of 5), and the paper's two,
// OR over 10 orgs with the one endorsement matching its last principal and
// AND over 5 orgs with all five endorsements.
void BM_PolicyEvaluate(benchmark::State& state, const char* text,
                       std::vector<const char*> orgs) {
  const auto p = policy::MustParsePolicy(text);
  std::vector<crypto::Principal> signers;
  for (const char* org : orgs) signers.push_back({org, crypto::Role::kPeer});
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::Satisfied(p, signers));
  }
}
BENCHMARK_CAPTURE(BM_PolicyEvaluate, OutOf3of5,
                  "OutOf(3,'A.peer','B.peer','C.peer','D.peer','E.peer')",
                  {"B", "D", "E"});
BENCHMARK_CAPTURE(BM_PolicyEvaluate, Or10MatchLast,
                  "OR('Org1MSP.peer','Org2MSP.peer','Org3MSP.peer',"
                  "'Org4MSP.peer','Org5MSP.peer','Org6MSP.peer',"
                  "'Org7MSP.peer','Org8MSP.peer','Org9MSP.peer',"
                  "'Org10MSP.peer')",
                  {"Org10MSP"});
BENCHMARK_CAPTURE(BM_PolicyEvaluate, And5,
                  "AND('Org1MSP.peer','Org2MSP.peer','Org3MSP.peer',"
                  "'Org4MSP.peer','Org5MSP.peer')",
                  {"Org1MSP", "Org2MSP", "Org3MSP", "Org4MSP", "Org5MSP"});

// One event through the scheduler: ScheduleAfter, then dispatch, of a
// 40-byte capture (the size of a network delivery's).
void BM_ScheduleDispatch(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (auto _ : state) {
    sched.ScheduleAfter(1, [&sink, a, b, c, d] { sink += a + b + c + d; });
    sched.Run();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ScheduleDispatch);

void BM_StateDbPutGet(benchmark::State& state) {
  ledger::StateDb db;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "key" + std::to_string(i % 10000);
    db.Put("cc", key, proto::ToBytes("v"), proto::KeyVersion{i, 0});
    benchmark::DoNotOptimize(db.Get("cc", key));
    ++i;
  }
}
BENCHMARK(BM_StateDbPutGet);

// The kvwrite pattern: every transaction inserts a short fresh key, so the
// namespace only grows. Each iteration builds and tears down one namespace
// of range(0) keys.
void BM_StateDbFreshInsert(benchmark::State& state) {
  std::vector<std::string> keys;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    keys.push_back("c0k" + std::to_string(i));
  }
  const proto::Bytes value = proto::ToBytes("x");
  for (auto _ : state) {
    ledger::StateDb db;
    std::uint64_t block = 0;
    for (const std::string& key : keys) {
      db.Put("kvwrite", key, value, proto::KeyVersion{block++, 0});
    }
    benchmark::DoNotOptimize(db.KeyCount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StateDbFreshInsert)->Arg(1000)->Arg(30000);

// The committer's duplicate screen and append: for each block of 100
// fresh 64-hex-character ids, one HasTransaction miss per id, then Append,
// keeping the newest 64 blocks. A ring of 256 blocks keeps every id fresh.
void BM_BlockStoreAppendLookup(benchmark::State& state) {
  std::vector<proto::BlockPtr> ring;
  for (std::uint64_t b = 0; b < 256; ++b) {
    std::vector<proto::TransactionEnvelope> txs(100);
    for (std::size_t i = 0; i < txs.size(); ++i) {
      txs[i].tx_id = crypto::DigestHex(
          crypto::HashStr(std::to_string(b) + "/" + std::to_string(i)));
    }
    ring.push_back(std::make_shared<proto::Block>(
        proto::Block::Make(b, nullptr, std::move(txs))));
  }
  ledger::BlockStore store;
  store.SetRetention(64);
  std::size_t next = 0;
  for (auto _ : state) {
    const proto::BlockPtr& block = ring[next++ % ring.size()];
    for (const auto& tx : block->transactions) {
      benchmark::DoNotOptimize(store.HasTransaction(tx.tx_id));
    }
    store.Append(block);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100);
}
BENCHMARK(BM_BlockStoreAppendLookup);

proto::TransactionEnvelope BenchTx(int i) {
  proto::TransactionEnvelope tx;
  tx.tx_id = "tx" + std::to_string(i);
  tx.chaincode_id = "cc";
  proto::NsReadWriteSet ns;
  ns.ns = "cc";
  ns.reads.push_back(proto::KVRead{"k" + std::to_string(i), std::nullopt});
  ns.writes.push_back(
      proto::KVWrite{"k" + std::to_string(i), proto::ToBytes("v"), false});
  tx.rwset.ns_rwsets.push_back(std::move(ns));
  return tx;
}

void BM_MvccValidateBlock(benchmark::State& state) {
  ledger::StateDb db;
  std::vector<proto::TransactionEnvelope> txs;
  for (int i = 0; i < state.range(0); ++i) txs.push_back(BenchTx(i));
  const auto block = proto::Block::Make(0, nullptr, txs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger::MvccValidator::Validate(block, db));
  }
}
BENCHMARK(BM_MvccValidateBlock)->Arg(10)->Arg(100);

void BM_EnvelopeSerialize(benchmark::State& state) {
  for (auto _ : state) {
    // Fresh envelope each round: measures real serialization, not the cache.
    auto tx = BenchTx(7);
    benchmark::DoNotOptimize(tx.Serialize());
  }
}
BENCHMARK(BM_EnvelopeSerialize);

void BM_BlockCutter(benchmark::State& state) {
  ordering::BatchConfig cfg;
  ordering::BlockCutter cutter(cfg);
  auto env = std::make_shared<proto::TransactionEnvelope>(BenchTx(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cutter.Ordered(env, 700));
  }
}
BENCHMARK(BM_BlockCutter);

void BM_IdentityCacheHit(benchmark::State& state) {
  crypto::MspRegistry msps;
  const auto& ca = msps.AddOrganization("Org1MSP");
  const auto cert = ca.Enroll("peer0", crypto::Role::kPeer).Cert().Serialize();
  benchmark::DoNotOptimize(msps.CachedCertificate(cert));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(msps.CachedCertificate(cert));
  }
}
BENCHMARK(BM_IdentityCacheHit);

}  // namespace

BENCHMARK_MAIN();
