#include "peer/committer.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fabric/channel.h"
#include "policy/parser.h"

namespace fabricsim::peer {
namespace {

constexpr const char* kOrPolicy = "OR('Org1MSP.peer','Org2MSP.peer')";

/// A channel whose chaincode "cc" is endorsed under `policy`.
std::shared_ptr<ChannelState> ChannelWith(const std::string& policy = kOrPolicy,
                                          std::uint64_t retention = 0) {
  return std::make_shared<ChannelState>(
      PolicyTable{{"cc", policy::MustParsePolicy(policy)}}, retention);
}

/// Builds valid endorsed envelopes against a fixed trust registry. Its
/// committer is built with `config` on `channel`.
struct CommitterFixture {
  explicit CommitterFixture(
      CommitterConfig config = {},
      std::shared_ptr<ChannelState> channel = ChannelWith())
      : env(3) {
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
    committer = std::make_unique<Committer>(
        env, *machine, *disk, msps, fabric::DefaultCalibration(), &tracker,
        std::move(channel), config);
  }

  proto::TransactionEnvelope MakeTx(
      const std::string& tx_id, std::vector<const crypto::Identity*> endorsers,
      std::vector<std::pair<std::string, std::optional<proto::KeyVersion>>>
          reads = {},
      std::vector<std::string> writes = {"k"}) {
    proto::TransactionEnvelope tx;
    tx.channel_id = "ch";
    tx.tx_id = tx_id;
    tx.creator_cert = client->Cert().Serialize();
    tx.chaincode_id = "cc";
    proto::NsReadWriteSet ns;
    ns.ns = "cc";
    for (auto& [k, v] : reads) ns.reads.push_back(proto::KVRead{k, v});
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

  /// Delivers a block and runs the sim until it commits.
  std::vector<proto::ValidationCode> Commit(proto::BlockPtr block) {
    std::vector<proto::ValidationCode> out;
    committer->OnBlock(std::move(block), [&](const CommittedBlock& cb) {
      out = *cb.codes;
    });
    env.Sched().RunUntil(env.Now() + sim::FromSeconds(5));
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

TEST(Committer, CommitsValidTransaction) {
  CommitterFixture f;
  const auto codes = f.Commit(f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})}));
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], proto::ValidationCode::kValid);
  EXPECT_EQ(f.committer->Chain().Height(), 1u);
  EXPECT_EQ(f.committer->CommittedTx(), 1u);
  EXPECT_TRUE(f.committer->State().Get("cc", "k").has_value());
  EXPECT_TRUE(f.committer->Chain().Audit().ok);
}

TEST(Committer, VsccRejectsUnendorsedTransaction) {
  CommitterFixture f;
  const auto codes = f.Commit(f.MakeBlock({f.MakeTx("t1", {})}));
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], proto::ValidationCode::kEndorsementPolicyFailure);
  // Invalid transactions are still recorded on the chain...
  EXPECT_EQ(f.committer->Chain().Height(), 1u);
  EXPECT_TRUE(f.committer->Chain().Store().HasTransaction("t1"));
  // ...but do not touch world state.
  EXPECT_FALSE(f.committer->State().Get("cc", "k").has_value());
  EXPECT_EQ(f.committer->InvalidTx(), 1u);
}

TEST(Committer, VsccRejectsWrongOrgEndorsement) {
  CommitterFixture f({}, ChannelWith("'Org1MSP.peer'"));
  const auto codes = f.Commit(f.MakeBlock({f.MakeTx("t1", {f.peer2.get()})}));
  EXPECT_EQ(codes[0], proto::ValidationCode::kEndorsementPolicyFailure);
}

TEST(Committer, VsccRejectsTamperedEndorsement) {
  CommitterFixture f;
  auto tx = f.MakeTx("t1", {f.peer1.get()});
  tx.endorsements[0].signature.bytes[5] ^= 1;
  tx.InvalidateCaches();
  const auto codes = f.Commit(f.MakeBlock({tx}));
  EXPECT_EQ(codes[0], proto::ValidationCode::kBadSignature);
}

TEST(Committer, VsccRejectsTamperedRwSet) {
  CommitterFixture f;
  auto tx = f.MakeTx("t1", {f.peer1.get()});
  // Tamper with the rwset after endorsement: the endorsement signature no
  // longer covers the payload.
  tx.rwset.ns_rwsets[0].writes[0].value = proto::ToBytes("evil");
  tx.client_signature = f.client->Sign([&] {
    tx.InvalidateCaches();
    return tx.SignedBody();
  }());
  const auto codes = f.Commit(f.MakeBlock({tx}));
  EXPECT_EQ(codes[0], proto::ValidationCode::kBadSignature);
}

TEST(Committer, VsccRejectsBadClientSignature) {
  CommitterFixture f;
  auto tx = f.MakeTx("t1", {f.peer1.get()});
  tx.client_signature.bytes[0] ^= 1;
  tx.InvalidateCaches();
  const auto codes = f.Commit(f.MakeBlock({tx}));
  EXPECT_EQ(codes[0], proto::ValidationCode::kBadSignature);
}

TEST(Committer, AndPolicyNeedsBothEndorsements) {
  CommitterFixture f({}, ChannelWith("AND('Org1MSP.peer','Org2MSP.peer')"));
  auto block = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()}),
                            f.MakeTx("t2", {f.peer1.get(), f.peer2.get()})});
  const auto codes = f.Commit(block);
  EXPECT_EQ(codes[0], proto::ValidationCode::kEndorsementPolicyFailure);
  EXPECT_EQ(codes[1], proto::ValidationCode::kValid);
}

TEST(Committer, DuplicateTxIdWithinBlockFlagged) {
  CommitterFixture f;
  auto t1 = f.MakeTx("dup", {f.peer1.get()});
  const auto codes = f.Commit(f.MakeBlock({t1, t1}));
  EXPECT_EQ(codes[0], proto::ValidationCode::kValid);
  EXPECT_EQ(codes[1], proto::ValidationCode::kDuplicateTxId);
}

TEST(Committer, DuplicateTxIdAcrossBlocksFlagged) {
  CommitterFixture f;
  auto tx = f.MakeTx("dup", {f.peer1.get()});
  EXPECT_EQ(f.Commit(f.MakeBlock({tx}))[0], proto::ValidationCode::kValid);
  EXPECT_EQ(f.Commit(f.MakeBlock({tx}))[0],
            proto::ValidationCode::kDuplicateTxId);
}

TEST(Committer, MvccConflictWithinBlock) {
  CommitterFixture f;
  // Both transactions read "k" as absent and write it: second conflicts.
  auto t1 = f.MakeTx("t1", {f.peer1.get()}, {{"k", std::nullopt}}, {"k"});
  auto t2 = f.MakeTx("t2", {f.peer1.get()}, {{"k", std::nullopt}}, {"k"});
  const auto codes = f.Commit(f.MakeBlock({t1, t2}));
  EXPECT_EQ(codes[0], proto::ValidationCode::kValid);
  EXPECT_EQ(codes[1], proto::ValidationCode::kMvccReadConflict);
}

TEST(Committer, DropsBlockWithForgedOrdererSignature) {
  CommitterFixture f;
  auto block = std::make_shared<proto::Block>(proto::Block::Make(
      0, nullptr, {f.MakeTx("t1", {f.peer1.get()})}));
  block->metadata.orderer_cert = f.orderer->Cert().Serialize();
  block->metadata.orderer_signature.bytes[0] ^= 1;  // forged
  bool committed = false;
  f.committer->OnBlock(block,
                       [&](const CommittedBlock&) { committed = true; });
  f.env.Sched().RunUntil(sim::FromSeconds(5));
  EXPECT_FALSE(committed);
  EXPECT_EQ(f.committer->Chain().Height(), 0u);
}

TEST(Committer, CommitsBlocksInOrderEvenIfDeliveredOutOfOrder) {
  CommitterFixture f;
  auto b0 = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})});
  auto b1 = f.MakeBlock({f.MakeTx("t2", {f.peer1.get()})});
  std::vector<std::uint64_t> commit_order;
  auto record = [&](const CommittedBlock& cb) {
    commit_order.push_back(cb.block->header.number);
  };
  f.committer->OnBlock(b1, record);  // deliver out of order
  f.committer->OnBlock(b0, record);
  f.env.Sched().RunUntil(sim::FromSeconds(5));
  EXPECT_EQ(commit_order, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(f.committer->Chain().Audit().ok);
}

TEST(Committer, IgnoresRedeliveredBlock) {
  CommitterFixture f;
  auto b0 = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})});
  int commits = 0;
  auto count = [&](const CommittedBlock&) { ++commits; };
  f.committer->OnBlock(b0, count);
  f.committer->OnBlock(b0, count);  // duplicate delivery
  f.env.Sched().RunUntil(sim::FromSeconds(5));
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(f.committer->Chain().Height(), 1u);
}

TEST(Committer, TrackerRecordsCommitAndCode) {
  CommitterFixture f;
  f.tracker.MarkSubmitted("t1", 0);
  f.Commit(f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})}));
  const auto* rec = f.tracker.Find("t1");
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->committed, 0);
  EXPECT_EQ(rec->code, proto::ValidationCode::kValid);
}

TEST(Committer, StateVersionsReflectBlockAndTxIndex) {
  CommitterFixture f;
  f.Commit(f.MakeBlock({f.MakeTx("a", {f.peer1.get()}, {}, {"k1"}),
                        f.MakeTx("b", {f.peer1.get()}, {}, {"k2"})}));
  EXPECT_EQ(f.committer->State().Get("cc", "k1")->version,
            (proto::KeyVersion{0, 0}));
  EXPECT_EQ(f.committer->State().Get("cc", "k2")->version,
            (proto::KeyVersion{0, 1}));
}

TEST(Committer, UnknownChaincodePolicyInvalid) {
  CommitterFixture f;
  auto tx = f.MakeTx("t1", {f.peer1.get()});
  tx.chaincode_id = "unregistered";
  tx.client_signature = f.client->Sign([&] {
    tx.InvalidateCaches();
    return tx.SignedBody();
  }());
  const auto codes = f.Commit(f.MakeBlock({tx}));
  EXPECT_EQ(codes[0], proto::ValidationCode::kInvalidOtherReason);
}

/// The fixture's committer plus a second one on its own machine, built
/// with `follower_config`, both on `channel` and sharing it from genesis
/// on. The fixture's committer leads each height it commits first.
struct SharedFixture : CommitterFixture {
  explicit SharedFixture(std::shared_ptr<ChannelState> channel = ChannelWith(),
                         CommitterConfig follower_config = {})
      : CommitterFixture({}, channel), shared(std::move(channel)) {
    follower_machine = &env.AddMachine("peer-b", sim::I7_2600());
    follower_disk = std::make_unique<sim::Cpu>(env.Sched(), 1);
    follower = std::make_unique<Committer>(
        env, *follower_machine, *follower_disk, msps,
        fabric::DefaultCalibration(), nullptr, shared, follower_config);
    const proto::BlockPtr genesis = MakeBlock({});
    committer->InstallGenesis(genesis);
    follower->InstallGenesis(genesis);
  }

  /// Block `number` on the chain so far, but holding `txs`: what an
  /// equivocating orderer hands some peers.
  proto::BlockPtr MakeFork(std::uint64_t number, const crypto::Digest& prev,
                           std::vector<proto::TransactionEnvelope> txs) {
    auto block = std::make_shared<proto::Block>(
        proto::Block::Make(number, &prev, std::move(txs)));
    block->metadata.orderer_cert = orderer->Cert().Serialize();
    block->metadata.orderer_signature =
        orderer->Sign(block->header.Serialize());
    return block;
  }

  std::vector<proto::ValidationCode> CommitOn(Committer& c,
                                              proto::BlockPtr block) {
    std::vector<proto::ValidationCode> out;
    c.OnBlock(std::move(block), [&](const CommittedBlock& cb) {
      out = *cb.codes;
    });
    env.Sched().RunUntil(env.Now() + sim::FromSeconds(5));
    return out;
  }

  std::shared_ptr<ChannelState> shared;
  sim::Machine* follower_machine = nullptr;
  std::unique_ptr<sim::Cpu> follower_disk;
  std::unique_ptr<Committer> follower;
};

TEST(SharedCommitter, FollowerReusesTheLeadersVerdict) {
  SharedFixture f;
  auto t1 = f.MakeTx("t1", {f.peer1.get()}, {{"k", std::nullopt}}, {"k"});
  auto t2 = f.MakeTx("t2", {f.peer1.get()}, {{"k", std::nullopt}}, {"k"});
  const auto block = f.MakeBlock({t1, t2, t1});
  const auto leader_codes = f.CommitOn(*f.committer, block);

  // The follower is behind the head: its view does not see block 1 yet.
  EXPECT_TRUE(f.committer->State().Get("cc", "k").has_value());
  EXPECT_FALSE(f.follower->State().Get("cc", "k").has_value());
  EXPECT_EQ(f.shared->state.RetainedVersions(), 0u);  // a fresh key

  EXPECT_EQ(f.CommitOn(*f.follower, block), leader_codes);
  EXPECT_EQ(leader_codes,
            (std::vector<proto::ValidationCode>{
                proto::ValidationCode::kValid,
                proto::ValidationCode::kMvccReadConflict,
                proto::ValidationCode::kDuplicateTxId}));
  EXPECT_TRUE(f.follower->SharesState());
  EXPECT_EQ(f.follower->DuplicateTxRejects(), 1u);
  EXPECT_EQ(f.follower->CommittedTx(), 1u);
  EXPECT_EQ(f.follower->State().Get("cc", "k")->version,
            (proto::KeyVersion{1, 0}));
  EXPECT_EQ(f.follower->Chain().Store().CodesFor(1), leader_codes);
  EXPECT_TRUE(f.follower->Chain().Audit().ok);
  // Both cursors passed height 1, so its codes and verdict are gone.
  EXPECT_EQ(f.shared->VerdictAt(1), nullptr);
  EXPECT_TRUE(f.shared->vscc_codes.empty());
}

TEST(SharedCommitter, FollowerReusesTheRecordedVsccCodes) {
  SharedFixture f;
  const auto block = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})});
  // Starting VSCC records the block's full-VSCC codes at its height.
  f.committer->OnBlock(block, [](const CommittedBlock&) {});
  ASSERT_EQ(f.shared->vscc_codes.size(), 1u);
  ChannelState::VsccCodes& recorded = f.shared->vscc_codes.front();
  EXPECT_EQ(recorded.height, 1u);
  EXPECT_EQ(recorded.block_hash, block->header.Hash());
  EXPECT_EQ(recorded.codes,
            std::vector<proto::ValidationCode>{proto::ValidationCode::kValid});
  f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(5));
  // The follower takes its codes from the record, not from its own
  // evaluation: a planted code reaches it, and no longer matches the
  // leader's verdict.
  recorded.codes[0] = proto::ValidationCode::kEndorsementPolicyFailure;
  EXPECT_EQ(f.CommitOn(*f.follower, block)[0],
            proto::ValidationCode::kEndorsementPolicyFailure);
  EXPECT_FALSE(f.follower->SharesState());
}

TEST(SharedCommitter, FollowerHandedAForgedBlockAtARecordedHeightKeepsItsCodes) {
  SharedFixture f;
  const crypto::Digest prev = f.prev_hash;
  const auto block = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})});
  EXPECT_EQ(f.CommitOn(*f.committer, block)[0],
            proto::ValidationCode::kValid);
  // The forged block 1 holds a transaction nobody endorsed.
  const auto fork = f.MakeFork(1, prev, {f.MakeTx("f1", {}, {}, {"j"})});
  std::vector<proto::ValidationCode> codes;
  f.follower->OnBlock(fork, [&](const CommittedBlock& cb) {
    codes = *cb.codes;
  });
  // The fork neither reads nor replaces the codes recorded at height 1.
  ASSERT_EQ(f.shared->vscc_codes.size(), 1u);
  const ChannelState::VsccCodes* recorded = f.shared->VsccCodesAt(1);
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->block_hash, block->header.Hash());
  EXPECT_EQ(recorded->codes,
            std::vector<proto::ValidationCode>{proto::ValidationCode::kValid});
  f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(5));
  EXPECT_EQ(codes, std::vector<proto::ValidationCode>{
                       proto::ValidationCode::kEndorsementPolicyFailure});
  EXPECT_FALSE(f.follower->SharesState());
  EXPECT_EQ(f.follower->Chain().Store().GetBlock(1), fork);
}

TEST(SharedCommitter, ChannelsWithOtherPoliciesDecideTheirOwnCodes) {
  // One block, validated by committers of two channels whose tables
  // endorse "cc" differently: each gets its own channel's code, whichever
  // channel sees the block first.
  for (const bool or_first : {true, false}) {
    CommitterFixture f;
    sim::Machine& machine_b = f.env.AddMachine("peer-b", sim::I7_2600());
    sim::Cpu disk_b(f.env.Sched(), 1);
    Committer org2(f.env, machine_b, disk_b, f.msps,
                   fabric::DefaultCalibration(), nullptr,
                   ChannelWith("'Org2MSP.peer'"), {});
    const proto::BlockPtr genesis = f.MakeBlock({});
    f.committer->InstallGenesis(genesis);
    org2.InstallGenesis(genesis);
    const auto block = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})});
    std::vector<proto::ValidationCode> or_codes;
    std::vector<proto::ValidationCode> org2_codes;
    auto deliver_or = [&] {
      f.committer->OnBlock(block, [&](const CommittedBlock& cb) {
        or_codes = *cb.codes;
      });
    };
    auto deliver_org2 = [&] {
      org2.OnBlock(block, [&](const CommittedBlock& cb) {
        org2_codes = *cb.codes;
      });
    };
    if (or_first) {
      deliver_or();
      deliver_org2();
    } else {
      deliver_org2();
      deliver_or();
    }
    f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(5));
    EXPECT_EQ(or_codes, std::vector<proto::ValidationCode>{
                            proto::ValidationCode::kValid})
        << or_first;
    EXPECT_EQ(org2_codes,
              std::vector<proto::ValidationCode>{
                  proto::ValidationCode::kEndorsementPolicyFailure})
        << or_first;
  }
}

TEST(SharedCommitter, LaggingFollowerReadsTheVersionItsHeightSees) {
  SharedFixture f;
  f.CommitOn(*f.committer, f.MakeBlock({f.MakeTx("a", {f.peer1.get()})}));
  f.CommitOn(*f.follower, f.committer->Chain().Store().GetBlock(1));
  // The leader overwrites "k" in block 2; the follower, still at height 2,
  // keeps reading block 1's version until it commits block 2 itself.
  const auto b2 = f.MakeBlock({f.MakeTx(
      "b", {f.peer1.get()}, {{"k", proto::KeyVersion{1, 0}}}, {"k"})});
  EXPECT_EQ(f.CommitOn(*f.committer, b2)[0], proto::ValidationCode::kValid);
  EXPECT_EQ(f.committer->State().Get("cc", "k")->version,
            (proto::KeyVersion{2, 0}));
  EXPECT_EQ(f.follower->State().Get("cc", "k")->version,
            (proto::KeyVersion{1, 0}));
  EXPECT_EQ(f.shared->state.RetainedVersions(), 1u);
  f.CommitOn(*f.follower, b2);
  EXPECT_EQ(f.follower->State().Get("cc", "k")->version,
            (proto::KeyVersion{2, 0}));
  EXPECT_EQ(f.shared->state.RetainedVersions(), 0u);
}

TEST(SharedCommitter, FollowerHandedADifferentBlockDetaches) {
  SharedFixture f;
  const crypto::Digest prev = f.prev_hash;
  // The leader commits t1 writing "k"; the follower is handed a forged
  // block 1 whose tx reads "k" as absent — valid on its own chain.
  f.CommitOn(*f.committer, f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})}));
  const auto fork = f.MakeFork(
      1, prev, {f.MakeTx("f1", {f.peer1.get()}, {{"k", std::nullopt}}, {"j"})});
  EXPECT_EQ(f.CommitOn(*f.follower, fork)[0], proto::ValidationCode::kValid);
  EXPECT_FALSE(f.follower->SharesState());
  // The leader stays on the channel, which is now its own.
  EXPECT_EQ(&f.committer->Channel(), f.shared.get());
  EXPECT_NE(&f.follower->Channel(), f.shared.get());
  // Each holds its own chain's state.
  EXPECT_TRUE(f.follower->State().Get("cc", "j").has_value());
  EXPECT_FALSE(f.follower->State().Get("cc", "k").has_value());
  EXPECT_TRUE(f.committer->State().Get("cc", "k").has_value());
  EXPECT_FALSE(f.committer->State().Get("cc", "j").has_value());
}

TEST(SharedCommitter, FollowerHandedAForgedBlockOfTheSameSizeDetaches) {
  SharedFixture f;
  const crypto::Digest prev = f.prev_hash;
  // Same size and the same VSCC codes as the leader's block 1: only the
  // header hash tells the forged block apart.
  const auto block = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})});
  const auto fork =
      f.MakeFork(1, prev, {f.MakeTx("f1", {f.peer1.get()}, {}, {"j"})});
  ASSERT_EQ(fork->WireSize(), block->WireSize());
  EXPECT_EQ(f.CommitOn(*f.committer, block)[0],
            proto::ValidationCode::kValid);
  EXPECT_EQ(f.CommitOn(*f.follower, fork)[0], proto::ValidationCode::kValid);
  EXPECT_FALSE(f.follower->SharesState());
  EXPECT_EQ(f.follower->Chain().Store().GetBlock(1), fork);
  EXPECT_TRUE(f.follower->State().Get("cc", "j").has_value());
  EXPECT_FALSE(f.follower->State().Get("cc", "k").has_value());
}

TEST(SharedCommitter, FollowerHandedACopyOfAnotherSizeKeepsItsOwn) {
  SharedFixture f;
  // The same block as assembled by another OSN, whose certificate has
  // another size: the follower's chain must hold and count its own copy.
  const auto block = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})});
  const crypto::Identity other = f.msps.Find("OrdererMSP")->Enroll(
      "orderer-with-a-longer-name", crypto::Role::kOrderer);
  auto copy = std::make_shared<proto::Block>(*block);
  copy->metadata.orderer_cert = other.Cert().Serialize();
  copy->metadata.orderer_signature = other.Sign(copy->header.Serialize());
  ASSERT_EQ(copy->header.Hash(), block->header.Hash());
  ASSERT_NE(copy->WireSize(), block->WireSize());
  f.CommitOn(*f.committer, block);
  EXPECT_EQ(f.CommitOn(*f.follower, copy)[0], proto::ValidationCode::kValid);
  EXPECT_FALSE(f.follower->SharesState());
  const ledger::BlockStore& store = f.follower->Chain().Store();
  EXPECT_EQ(store.GetBlock(1), copy);
  EXPECT_EQ(store.StoredBytes(),
            store.GetBlock(0)->WireSize() + copy->WireSize());
}

TEST(SharedCommitter, FollowerWithDifferentVsccCodesDetaches) {
  // The fixture's follower short-circuits policy evaluation, so its VSCC
  // codes are its own: it stops at the endorsement that satisfies the OR
  // policy and never sees the forged one after it, which full VSCC
  // rejects. A short-circuit code is never recorded for the channel, so
  // whichever committer validates first, each keeps its own code, and the
  // second detaches.
  using proto::ValidationCode;
  for (const bool shortcircuit_first : {false, true}) {
    CommitterConfig shortcircuit;
    shortcircuit.optimizations.policy_shortcircuit = true;
    SharedFixture f(ChannelWith(), shortcircuit);
    auto tx = f.MakeTx("t1", {f.peer1.get(), f.peer2.get()});
    tx.endorsements[1].signature.bytes[3] ^= 1;
    tx.client_signature = f.client->Sign([&] {
      tx.InvalidateCaches();
      return tx.SignedBody();
    }());
    const auto block = f.MakeBlock({tx});
    Committer& full = *f.committer;
    Committer& shortcut = *f.follower;
    Committer& first = shortcircuit_first ? shortcut : full;
    Committer& second = shortcircuit_first ? full : shortcut;
    const ValidationCode first_code = f.CommitOn(first, block)[0];
    const ValidationCode second_code = f.CommitOn(second, block)[0];
    EXPECT_EQ(shortcircuit_first ? first_code : second_code,
              ValidationCode::kValid)
        << shortcircuit_first;
    EXPECT_EQ(shortcircuit_first ? second_code : first_code,
              ValidationCode::kBadSignature)
        << shortcircuit_first;
    EXPECT_EQ(&first.Channel(), f.shared.get()) << shortcircuit_first;
    EXPECT_NE(&second.Channel(), f.shared.get()) << shortcircuit_first;
    EXPECT_TRUE(shortcut.State().Get("cc", "k").has_value());
    EXPECT_FALSE(full.State().Get("cc", "k").has_value());
    EXPECT_EQ(shortcut.CommittedTx(), 1u);
    EXPECT_EQ(full.InvalidTx(), 1u);
  }
}

TEST(SharedCommitter, DetachedCommitterKeepsItsChannelsPolicies) {
  // Detached by a crash (PeerNode::OnCrash calls DetachState) or by
  // mutable chain access, a committer validates against the policy table
  // its private channel copied.
  for (const bool crash : {true, false}) {
    SharedFixture f(ChannelWith("'Org2MSP.peer'"));
    if (crash) {
      f.follower->DetachState();
    } else {
      (void)f.follower->MutableChainForTest();
    }
    ASSERT_FALSE(f.follower->SharesState());
    const auto block =
        f.MakeBlock({f.MakeTx("t1", {f.peer2.get()}, {}, {"a"}),
                     f.MakeTx("t2", {f.peer1.get()}, {}, {"b"})});
    EXPECT_EQ(f.CommitOn(*f.follower, block),
              (std::vector<proto::ValidationCode>{
                  proto::ValidationCode::kValid,
                  proto::ValidationCode::kEndorsementPolicyFailure}))
        << crash;
    EXPECT_EQ(f.follower->Vscc(block->transactions[1]),
              proto::ValidationCode::kEndorsementPolicyFailure)
        << crash;
  }
}

TEST(SharedCommitter, MutableChainDetaches) {
  // MutableChainForTest moves a follower off the channel while the leader
  // still reads it: the channel stops counting the follower, so its lowest
  // height becomes the leader's.
  SharedFixture f;
  f.CommitOn(*f.committer, f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})}));
  ASSERT_TRUE(f.follower->SharesState());
  ASSERT_TRUE(f.committer->SharesState());
  ASSERT_EQ(f.shared->blocks->OldestHeight(), f.follower->Chain().Height());
  ASSERT_LT(f.follower->Chain().Height(), f.committer->Chain().Height());
  (void)f.follower->MutableChainForTest();
  EXPECT_FALSE(f.follower->SharesState());
  EXPECT_NE(&f.follower->Channel(), f.shared.get());
  EXPECT_EQ(&f.committer->Channel(), f.shared.get());
  EXPECT_EQ(f.shared->blocks->OldestHeight(), f.committer->Chain().Height());
}

TEST(SharedCommitter, CommitterWithDedupOffStartsOnAPrivateCopy) {
  // Built on a channel two committers share, a committer whose dedup
  // screen is off starts on a copy of it, seeded state included: the block
  // it leads, holding t1 twice, never becomes a verdict that a committer
  // with the screen on follows.
  auto channel = ChannelWith("'Org1MSP.peer'");
  channel->state.Put("cc", "seeded", proto::ToBytes("1"), {0, 0});
  CommitterFixture f({}, channel);
  sim::Machine& machine_b = f.env.AddMachine("peer-b", sim::I7_2600());
  sim::Machine& machine_c = f.env.AddMachine("peer-c", sim::I7_2600());
  sim::Cpu disk_b(f.env.Sched(), 1);
  sim::Cpu disk_c(f.env.Sched(), 1);
  CommitterConfig dedup_off;
  dedup_off.dedup_disabled = true;
  Committer follower(f.env, machine_b, disk_b, f.msps,
                     fabric::DefaultCalibration(), nullptr, channel, {});
  Committer unscreened(f.env, machine_c, disk_c, f.msps,
                       fabric::DefaultCalibration(), nullptr, channel,
                       dedup_off);
  const proto::BlockPtr genesis = f.MakeBlock({});
  for (Committer* c : {f.committer.get(), &follower, &unscreened}) {
    c->InstallGenesis(genesis);
  }
  EXPECT_TRUE(f.committer->SharesState());
  EXPECT_TRUE(follower.SharesState());
  EXPECT_EQ(&follower.Channel(), channel.get());
  EXPECT_FALSE(unscreened.SharesState());
  EXPECT_NE(&unscreened.Channel(), channel.get());
  EXPECT_TRUE(unscreened.State().Get("cc", "seeded").has_value());

  const auto t1 = f.MakeTx("t1", {f.peer1.get()}, {}, {"k"});
  const auto block = f.MakeBlock({t1, t1});
  auto commit_on = [&](Committer& c) {
    std::vector<proto::ValidationCode> out;
    c.OnBlock(block, [&](const CommittedBlock& cb) { out = *cb.codes; });
    f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(5));
    return out;
  };
  using proto::ValidationCode;
  EXPECT_EQ(commit_on(unscreened),
            (std::vector{ValidationCode::kValid, ValidationCode::kValid}));
  const std::vector screened{ValidationCode::kValid,
                             ValidationCode::kDuplicateTxId};
  EXPECT_EQ(commit_on(*f.committer), screened);
  EXPECT_EQ(commit_on(follower), screened);
  EXPECT_EQ(unscreened.DuplicateTxRejects(), 0u);
  EXPECT_EQ(f.committer->DuplicateTxRejects(), 1u);
  EXPECT_EQ(follower.DuplicateTxRejects(), 1u);
  EXPECT_TRUE(follower.SharesState());
}

TEST(SharedCommitter, CommitterOnAChannelPastGenesisIsRefused) {
  SharedFixture f;
  EXPECT_THROW(Committer(f.env, *f.machine, *f.disk, f.msps,
                         fabric::DefaultCalibration(), nullptr, f.shared, {}),
               std::invalid_argument);
}

TEST(SharedCommitter, PrivateChannelsKeepOnlyTheirOwnWindow) {
  // A standalone committer and a detached one each commit into a channel
  // of one: under retention, neither keeps a block outside its own chain's
  // window, a superseded version, or a verdict. The leader, left alone on
  // the shared channel, keeps no more than they do.
  constexpr std::uint64_t kKeep = 3;
  SharedFixture f(ChannelWith(kOrPolicy, kKeep));
  sim::Machine& solo_machine = f.env.AddMachine("peer-c", sim::I7_2600());
  sim::Cpu solo_disk(f.env.Sched(), 1);
  Committer solo(f.env, solo_machine, solo_disk, f.msps,
                 fabric::DefaultCalibration(), nullptr,
                 ChannelWith("'Org1MSP.peer'", kKeep), {});
  solo.InstallGenesis(f.committer->Chain().Store().GetBlock(0));
  Committer* const committers[] = {f.committer.get(), f.follower.get(), &solo};
  f.follower->DetachState();
  EXPECT_FALSE(f.follower->SharesState());
  EXPECT_FALSE(f.committer->SharesState());

  for (int b = 1; b <= 10; ++b) {
    // Every block overwrites "k", superseding the version before it.
    const auto block =
        f.MakeBlock({f.MakeTx("t" + std::to_string(b), {f.peer1.get()})});
    for (Committer* c : committers) {
      const std::string who = "block " + std::to_string(b) + " committer " +
                              std::to_string(c - committers[0]);
      ASSERT_EQ(f.CommitOn(*c, block)[0], proto::ValidationCode::kValid)
          << who;
      const ChannelState& channel = c->Channel();
      const ledger::BlockStore& store = c->Chain().Store();
      EXPECT_EQ(channel.blocks, store.Log()) << who;
      EXPECT_EQ(channel.retention, kKeep) << who;
      EXPECT_EQ(store.Retention(), kKeep) << who;
      EXPECT_EQ(channel.blocks->Height(), store.Height()) << who;
      EXPECT_EQ(channel.blocks->ResidentBlocks(), store.ResidentBlocks())
          << who;
      std::size_t resident_txs = 0;
      for (std::uint64_t n = store.FirstBlockNumber(); n < store.Height();
           ++n) {
        resident_txs += store.GetBlock(n)->TxCount();
      }
      EXPECT_EQ(channel.blocks->IndexedTransactions(), resident_txs) << who;
      EXPECT_EQ(channel.state.RetainedVersions(), 0u) << who;
      EXPECT_TRUE(channel.vscc_codes.empty()) << who;
      EXPECT_TRUE(channel.verdicts.empty()) << who;
      EXPECT_EQ(c->State().Get("cc", "k")->version,
                (proto::KeyVersion{static_cast<std::uint64_t>(b), 0}))
          << who;
    }
  }
  EXPECT_EQ(solo.Chain().Store().FirstBlockNumber(), 11 - kKeep);
  EXPECT_EQ(&f.committer->Channel(), f.shared.get());
}

}  // namespace
}  // namespace fabricsim::peer
