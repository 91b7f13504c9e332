#include "peer/committer.h"

#include <gtest/gtest.h>

#include <functional>

#include "fabric/channel.h"
#include "policy/parser.h"

namespace fabricsim::peer {
namespace {

/// Builds valid endorsed envelopes against a fixed trust registry.
struct CommitterFixture {
  CommitterFixture() : env(3) {
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
    committer = std::make_unique<Committer>(env, *machine, *disk, msps,
                                            fabric::DefaultCalibration(),
                                            &tracker);
    committer->SetPolicy("cc", policy::MustParsePolicy("OR('Org1MSP.peer',"
                                                       "'Org2MSP.peer')"));
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
  CommitterFixture f;
  f.committer->SetPolicy("cc", policy::MustParsePolicy("'Org1MSP.peer'"));
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
  CommitterFixture f;
  f.committer->SetPolicy(
      "cc", policy::MustParsePolicy("AND('Org1MSP.peer','Org2MSP.peer')"));
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

/// The fixture's committer plus a second one on its own machine, both on
/// one shared channel state from genesis on. The fixture's committer leads
/// each height it commits first.
struct SharedFixture : CommitterFixture {
  SharedFixture() {
    follower_machine = &env.AddMachine("peer-b", sim::I7_2600());
    follower_disk = std::make_unique<sim::Cpu>(env.Sched(), 1);
    follower = std::make_unique<Committer>(env, *follower_machine,
                                           *follower_disk, msps,
                                           fabric::DefaultCalibration(),
                                           nullptr);
    follower->SetPolicy("cc", policy::MustParsePolicy("OR('Org1MSP.peer',"
                                                      "'Org2MSP.peer')"));
    committer->ShareState(shared);
    follower->ShareState(shared);
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

  std::shared_ptr<ChannelState> shared = std::make_shared<ChannelState>();
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
  // Both cursors passed height 1, so its verdict is gone.
  EXPECT_EQ(f.shared->VerdictAt(1), nullptr);
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
  SharedFixture f;
  // Same block, but the follower's channel policy demands Org2.
  f.follower->SetPolicy("cc", policy::MustParsePolicy("'Org2MSP.peer'"));
  const auto block = f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})});
  EXPECT_EQ(f.CommitOn(*f.committer, block)[0],
            proto::ValidationCode::kValid);
  EXPECT_EQ(f.CommitOn(*f.follower, block)[0],
            proto::ValidationCode::kEndorsementPolicyFailure);
  EXPECT_FALSE(f.follower->SharesState());
  EXPECT_FALSE(f.follower->State().Get("cc", "k").has_value());
  EXPECT_TRUE(f.committer->State().Get("cc", "k").has_value());
  EXPECT_EQ(f.follower->InvalidTx(), 1u);
}

TEST(SharedCommitter, FailpointAndMutableChainDetach) {
  // A committer failpoint and MutableChainForTest each move a follower off
  // the channel while the leader still reads it: the channel stops counting
  // the follower, so its lowest height becomes the leader's.
  const std::function<void(Committer&)> detaches[] = {
      [](Committer& c) { c.SetDedupDisabled(true); },
      [](Committer& c) { (void)c.MutableChainForTest(); }};
  for (const auto& detach : detaches) {
    SharedFixture f;
    f.CommitOn(*f.committer, f.MakeBlock({f.MakeTx("t1", {f.peer1.get()})}));
    ASSERT_TRUE(f.follower->SharesState());
    ASSERT_TRUE(f.committer->SharesState());
    ASSERT_EQ(f.shared->blocks->OldestHeight(), f.follower->Chain().Height());
    ASSERT_LT(f.follower->Chain().Height(), f.committer->Chain().Height());
    detach(*f.follower);
    EXPECT_FALSE(f.follower->SharesState());
    EXPECT_NE(&f.follower->Channel(), f.shared.get());
    EXPECT_EQ(&f.committer->Channel(), f.shared.get());
    EXPECT_EQ(f.shared->blocks->OldestHeight(), f.committer->Chain().Height());
  }
}

TEST(SharedCommitter, PrivateChannelsKeepOnlyTheirOwnWindow) {
  // A standalone committer and a detached one each commit into a channel
  // of one: under retention, neither keeps a block outside its own chain's
  // window, a superseded version, or a verdict. The leader, left alone on
  // the shared channel, keeps no more than they do.
  SharedFixture f;
  sim::Machine& solo_machine = f.env.AddMachine("peer-c", sim::I7_2600());
  sim::Cpu solo_disk(f.env.Sched(), 1);
  Committer solo(f.env, solo_machine, solo_disk, f.msps,
                 fabric::DefaultCalibration(), nullptr);
  solo.SetPolicy("cc", policy::MustParsePolicy("'Org1MSP.peer'"));
  solo.InstallGenesis(f.committer->Chain().Store().GetBlock(0));
  constexpr std::uint64_t kKeep = 3;
  Committer* const committers[] = {f.committer.get(), f.follower.get(), &solo};
  for (Committer* c : committers) c->SetLedgerRetention(kKeep);
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
