// The --opt-* validate-phase knobs (Thakkar et al., arXiv:1805.11390) on a
// single committer: every knob must change simulated *timing* only — the
// validation verdicts, commit order, and end state stay bit-identical to
// the unoptimized committer (except the one documented shortcircuit
// divergence pinned below).
//
// The CommitterVsccWorkers suites check the simulated parallel-VSCC worker
// station: --opt-vscc-workers adds simulated cores, never host threads, so
// the committer runs on the one host thread that owns its experiment.
#include "peer/committer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fabric/channel.h"
#include "fabric/optimizations.h"
#include "policy/parser.h"

namespace fabricsim::peer {
namespace {

/// Builds valid endorsed envelopes against a fixed trust registry (same
/// shape as peer_committer_test.cpp; identities derive deterministically, so
/// two fixtures produce byte-identical blocks).
struct Fixture {
  explicit Fixture(const fabric::OptimizationOptions& opt = {}) : env(3) {
    msps.AddOrganization("Org1MSP");
    msps.AddOrganization("Org2MSP");
    msps.AddOrganization("ClientOrgMSP");
    msps.AddOrganization("OrdererMSP");
    client = std::make_unique<crypto::Identity>(
        msps.Find("ClientOrgMSP")->Enroll("app0", crypto::Role::kClient));
    peer1 = std::make_unique<crypto::Identity>(
        msps.Find("Org1MSP")->Enroll("peer0", crypto::Role::kPeer));
    peer2 = std::make_unique<crypto::Identity>(
        msps.Find("Org2MSP")->Enroll("peer0", crypto::Role::kPeer));
    orderer = std::make_unique<crypto::Identity>(
        msps.Find("OrdererMSP")->Enroll("orderer0", crypto::Role::kOrderer));

    machine = &env.AddMachine("peer", sim::I7_2600());
    disk = std::make_unique<sim::Cpu>(env.Sched(), 1);
    CommitterConfig config;
    config.optimizations = opt;
    committer = std::make_unique<Committer>(
        env, *machine, *disk, msps, fabric::DefaultCalibration(), &tracker,
        std::make_shared<ChannelState>(), config);
    committer->SetPolicy("cc", policy::MustParsePolicy("OR('Org1MSP.peer',"
                                                       "'Org2MSP.peer')"));
  }

  proto::TransactionEnvelope MakeTx(
      const std::string& tx_id, std::vector<const crypto::Identity*> endorsers,
      std::vector<std::string> writes = {"k"}) {
    proto::TransactionEnvelope tx;
    tx.channel_id = "ch";
    tx.tx_id = tx_id;
    tx.creator_cert = client->Cert().Serialize();
    tx.chaincode_id = "cc";
    proto::NsReadWriteSet ns;
    ns.ns = "cc";
    for (auto& k : writes) {
      ns.writes.push_back(proto::KVWrite{k, proto::ToBytes("v"), false});
    }
    tx.rwset.ns_rwsets.push_back(std::move(ns));
    for (const auto* e : endorsers) {
      proto::Endorsement en;
      en.endorser_cert = e->Cert().Serialize();
      en.signature = e->Sign(tx.EndorsedPayloadBytes());
      tx.endorsements.push_back(std::move(en));
    }
    tx.client_signature = client->Sign(tx.SignedBody());
    return tx;
  }

  proto::BlockPtr MakeBlock(std::vector<proto::TransactionEnvelope> txs) {
    auto block = std::make_shared<proto::Block>(proto::Block::Make(
        next_block_number, next_block_number == 0 ? nullptr : &prev_hash,
        std::move(txs)));
    block->metadata.orderer_cert = orderer->Cert().Serialize();
    block->metadata.orderer_signature =
        orderer->Sign(block->header.Serialize());
    prev_hash = block->header.Hash();
    ++next_block_number;
    return block;
  }

  std::vector<proto::ValidationCode> Commit(proto::BlockPtr block) {
    std::vector<proto::ValidationCode> out;
    committer->OnBlock(std::move(block), [&](const CommittedBlock& cb) {
      out = *cb.codes;
    });
    env.Sched().RunUntil(env.Now() + sim::FromSeconds(30));
    return out;
  }

  sim::Environment env;
  crypto::MspRegistry msps;
  std::unique_ptr<crypto::Identity> client, peer1, peer2, orderer;
  sim::Machine* machine = nullptr;
  std::unique_ptr<sim::Cpu> disk;
  metrics::TxTracker tracker;
  std::unique_ptr<Committer> committer;
  std::uint64_t next_block_number = 0;
  crypto::Digest prev_hash{};
};

fabric::OptimizationOptions AllKnobs() {
  fabric::OptimizationOptions opt;
  opt.msp_cache = true;
  opt.vscc_workers = 4;
  opt.bulk_commit = true;
  opt.policy_shortcircuit = true;
  return opt;
}

/// Runs the same mixed block sequence through a baseline fixture and a
/// knobbed one; returns {baseline codes, knobbed codes} per block.
using CodeSeq = std::vector<std::vector<proto::ValidationCode>>;
std::pair<CodeSeq, CodeSeq> RunBoth(const fabric::OptimizationOptions& opt) {
  CodeSeq base_codes, opt_codes;
  for (int which = 0; which < 2; ++which) {
    Fixture f(which == 1 ? opt : fabric::OptimizationOptions{});
    CodeSeq& out = which == 0 ? base_codes : opt_codes;
    // Block 0: all valid, multi-tx. Block 1: unendorsed + tampered
    // endorsement + valid + duplicate id. Block 2: valid again (the
    // pipeline survives the invalid block).
    out.push_back(f.Commit(f.MakeBlock(
        {f.MakeTx("a", {f.peer1.get()}, {"k1"}),
         f.MakeTx("b", {f.peer2.get()}, {"k2"}),
         f.MakeTx("c", {f.peer1.get(), f.peer2.get()}, {"k3"})})));
    auto tampered = f.MakeTx("e", {f.peer1.get()}, {"k5"});
    tampered.endorsements[0].signature.bytes[5] ^= 1;
    tampered.InvalidateCaches();
    out.push_back(f.Commit(f.MakeBlock(
        {f.MakeTx("d", {}, {"k4"}), tampered,
         f.MakeTx("f", {f.peer2.get()}, {"k6"}),
         f.MakeTx("a", {f.peer1.get()}, {"k1"})})));
    out.push_back(f.Commit(f.MakeBlock({f.MakeTx("g", {f.peer1.get()})})));
    if (which == 1) {
      // All three blocks actually committed, in order.
      EXPECT_EQ(f.committer->Chain().Height(), 3u);
      EXPECT_TRUE(f.committer->Chain().Audit().ok);
    }
  }
  return {base_codes, opt_codes};
}

TEST(CommitterVsccWorkersTest, VerdictsMatchSerialValidation) {
  fabric::OptimizationOptions opt;
  opt.vscc_workers = 4;
  const auto [base, with] = RunBoth(opt);
  EXPECT_EQ(base, with);
  ASSERT_EQ(with[1].size(), 4u);
  EXPECT_EQ(with[1][0], proto::ValidationCode::kEndorsementPolicyFailure);
  EXPECT_EQ(with[1][1], proto::ValidationCode::kBadSignature);
  EXPECT_EQ(with[1][3], proto::ValidationCode::kDuplicateTxId);
}

TEST(CommitterVsccWorkersTest, CommitOrderSurvivesOutOfOrderDelivery) {
  // Parallel VSCC must not reorder commits: blocks delivered out of order
  // still commit 0, 1, 2.
  fabric::OptimizationOptions opt;
  opt.vscc_workers = 4;
  Fixture f(opt);
  auto b0 = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()}),
                         f.MakeTx("t2", {f.peer2.get()})});
  auto b1 = f.MakeBlock({f.MakeTx("t3", {f.peer1.get()})});
  auto b2 = f.MakeBlock({f.MakeTx("t4", {f.peer2.get()})});
  std::vector<std::uint64_t> order;
  auto record = [&](const CommittedBlock& cb) {
    order.push_back(cb.block->header.number);
  };
  f.committer->OnBlock(b2, record);
  f.committer->OnBlock(b0, record);
  f.committer->OnBlock(b1, record);
  f.env.Sched().RunUntil(sim::FromSeconds(30));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_TRUE(f.committer->Chain().Audit().ok);
}

TEST(CommitterOptimizations, BulkCommitEndStateIdentical) {
  fabric::OptimizationOptions opt;
  opt.bulk_commit = true;
  const auto [base, with] = RunBoth(opt);
  EXPECT_EQ(base, with);

  // And the world state written with bulk commit on matches key-by-key.
  Fixture serial;
  Fixture bulk(opt);
  for (Fixture* f : {&serial, &bulk}) {
    f->Commit(f->MakeBlock({f->MakeTx("a", {f->peer1.get()}, {"k1"}),
                            f->MakeTx("b", {}, {"k2"}),
                            f->MakeTx("c", {f->peer2.get()}, {"k3"})}));
  }
  for (const char* k : {"k1", "k3"}) {
    const auto s = serial.committer->State().Get("cc", k);
    const auto b = bulk.committer->State().Get("cc", k);
    ASSERT_TRUE(s.has_value()) << k;
    ASSERT_TRUE(b.has_value()) << k;
    EXPECT_EQ(s->version, b->version) << k;
    EXPECT_EQ(s->value, b->value) << k;
  }
  // The invalid tx's write never lands in either mode.
  EXPECT_FALSE(serial.committer->State().Get("cc", "k2").has_value());
  EXPECT_FALSE(bulk.committer->State().Get("cc", "k2").has_value());
}

TEST(CommitterOptimizations, MspCacheChangesNoVerdictsAndCountsHits) {
  fabric::OptimizationOptions opt;
  opt.msp_cache = true;
  const auto [base, with] = RunBoth(opt);
  EXPECT_EQ(base, with);

  Fixture f(opt);
  f.Commit(f.MakeBlock({f.MakeTx("a", {f.peer1.get()}, {"k1"}),
                        f.MakeTx("b", {f.peer1.get()}, {"k2"})}));
  ASSERT_NE(f.committer->MspCache(), nullptr);
  // Identities repeat within the block (same client creator, same
  // endorser), so the cache must have hit.
  EXPECT_GT(f.committer->MspCache()->Hits(), 0u);
  EXPECT_GT(f.committer->MspCache()->Misses(), 0u);
}

TEST(CommitterOptimizations, OptMspCacheAloneDecidesTheMspCache) {
  // Three transactions from one client, four endorsements by two peers:
  // identities repeat, so a cache would hit from the second lookup on.
  auto block = [](Fixture& f) {
    return f.MakeBlock({f.MakeTx("a", {f.peer1.get()}, {"k1"}),
                        f.MakeTx("b", {f.peer1.get()}, {"k2"}),
                        f.MakeTx("c", {f.peer2.get(), f.peer1.get()}, {"k3"})});
  };
  const fabric::Calibration& cal = fabric::DefaultCalibration();

  // Knob off: no cache, and every VSCC job is charged the uncached cost.
  // VSCC is the only work on the peer CPU, so its busy time is their sum.
  Fixture off;
  off.Commit(block(off));
  EXPECT_EQ(off.committer->MspCache(), nullptr);
  const sim::Cpu& off_cpu = off.machine->GetCpu();
  sim::SimDuration uncached = 0;
  for (const int endorsements : {1, 1, 2}) {
    uncached += off_cpu.ScaledCost(cal.vscc_base_cpu +
                                   endorsements * cal.vscc_per_endorsement_cpu);
  }
  EXPECT_EQ(off_cpu.BusyTime(), uncached);

  // Knob on: the cache records hits, and its hits make VSCC cheaper.
  fabric::OptimizationOptions opt;
  opt.msp_cache = true;
  Fixture on(opt);
  on.Commit(block(on));
  ASSERT_NE(on.committer->MspCache(), nullptr);
  EXPECT_GT(on.committer->MspCache()->Hits(), 0u);
  EXPECT_LT(on.machine->GetCpu().BusyTime(), uncached);
}

TEST(CommitterOptimizations, AllKnobsTogetherMatchBaselineVerdicts) {
  const auto [base, with] = RunBoth(AllKnobs());
  EXPECT_EQ(base, with);
}

TEST(CommitterOptimizations, ShortcircuitStopsAtPolicySatisfaction) {
  // AND(Org1,Org2) satisfied by the first two endorsements; a third,
  // tampered endorsement follows. Full validation verifies every signature
  // and rejects; shortcircuit stops at the satisfying prefix and accepts.
  // This is the knob's one deliberate divergence from Fabric's VSCC —
  // EXPERIMENTS.md documents it — pinned here so it cannot drift silently.
  for (const bool shortcircuit : {false, true}) {
    fabric::OptimizationOptions opt;
    opt.policy_shortcircuit = shortcircuit;
    Fixture f(opt);
    f.committer->SetPolicy(
        "cc", policy::MustParsePolicy("AND('Org1MSP.peer','Org2MSP.peer')"));
    auto tx = f.MakeTx("t1", {f.peer1.get(), f.peer2.get(), f.peer1.get()});
    // Tamper the surplus endorsement, then re-sign as the client: the
    // submitted envelope legitimately carries a junk third endorsement
    // (the client signature covers the endorsement list).
    tx.endorsements[2].signature.bytes[3] ^= 1;
    tx.client_signature = f.client->Sign([&] {
      tx.InvalidateCaches();
      return tx.SignedBody();
    }());
    const auto codes = f.Commit(f.MakeBlock({tx}));
    ASSERT_EQ(codes.size(), 1u);
    EXPECT_EQ(codes[0], shortcircuit ? proto::ValidationCode::kValid
                                     : proto::ValidationCode::kBadSignature);
  }
}

TEST(CommitterOptimizations, ShortcircuitStillRejectsWhatMatters) {
  // Everything before or inside the satisfying prefix is still enforced:
  // bad client signature, unsatisfiable policy, and a forged signature on
  // an endorsement the prefix needs.
  fabric::OptimizationOptions opt;
  opt.policy_shortcircuit = true;

  Fixture f(opt);
  auto bad_client = f.MakeTx("t1", {f.peer1.get()}, {"k1"});
  bad_client.client_signature.bytes[0] ^= 1;
  bad_client.InvalidateCaches();
  // Re-signed by the client so the forged endorsement — which the OR
  // policy's prefix needs — is what gets rejected, not the client check.
  auto forged_needed = f.MakeTx("t2", {f.peer1.get()}, {"k2"});
  forged_needed.endorsements[0].signature.bytes[5] ^= 1;
  forged_needed.client_signature = f.client->Sign([&] {
    forged_needed.InvalidateCaches();
    return forged_needed.SignedBody();
  }());
  const auto codes = f.Commit(f.MakeBlock(
      {bad_client, forged_needed, f.MakeTx("t3", {}, {"k3"})}));
  ASSERT_EQ(codes.size(), 3u);
  EXPECT_EQ(codes[0], proto::ValidationCode::kBadSignature);
  EXPECT_EQ(codes[1], proto::ValidationCode::kBadSignature);
  EXPECT_EQ(codes[2], proto::ValidationCode::kEndorsementPolicyFailure);
}

}  // namespace
}  // namespace fabricsim::peer
