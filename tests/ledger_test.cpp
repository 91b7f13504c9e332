#include <gtest/gtest.h>

#include "crypto/ca.h"
#include "ledger/block_store.h"
#include "ledger/blockchain.h"
#include "ledger/history_index.h"
#include "ledger/mvcc.h"
#include "ledger/state_db.h"

namespace fabricsim::ledger {
namespace {

using proto::Bytes;
using proto::KeyVersion;
using proto::ToBytes;
using proto::ValidationCode;

TEST(StateDb, GetMissingKeyReturnsNullopt) {
  StateDb db;
  EXPECT_FALSE(db.Get("cc", "nope").has_value());
  EXPECT_FALSE(db.GetVersion("cc", "nope").has_value());
}

TEST(StateDb, PutThenGet) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{2, 7});
  const auto v = db.Get("cc", "k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(proto::ToString(v->value), "v");
  EXPECT_EQ(v->version, (KeyVersion{2, 7}));
  EXPECT_EQ(db.KeyCount(), 1u);
}

TEST(StateDb, NamespacesAreIsolated) {
  StateDb db;
  db.Put("cc1", "k", ToBytes("a"), KeyVersion{1, 0});
  db.Put("cc2", "k", ToBytes("b"), KeyVersion{1, 1});
  EXPECT_EQ(proto::ToString(db.Get("cc1", "k")->value), "a");
  EXPECT_EQ(proto::ToString(db.Get("cc2", "k")->value), "b");
}

TEST(StateDb, CompositeKeyUnambiguous) {
  // ("a", "b\0c") must not collide with ("a\0b", "c").
  StateDb db;
  db.Put("a", std::string("b\0c", 3), ToBytes("1"), KeyVersion{1, 0});
  EXPECT_FALSE(db.Get(std::string("a\0b", 3), "c").has_value());
}

TEST(StateDb, DeleteRemovesKey) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  db.Delete("cc", "k");
  EXPECT_FALSE(db.Get("cc", "k").has_value());
  EXPECT_EQ(db.KeyCount(), 0u);
}

TEST(StateDb, ApplyRwSetWritesAndDeletes) {
  StateDb db;
  db.Put("cc", "gone", ToBytes("x"), KeyVersion{1, 0});
  proto::RwSetBuilder b("cc");
  b.AddWrite("k1", ToBytes("v1"));
  b.AddDelete("gone");
  db.ApplyRwSet(std::move(b).Build(), KeyVersion{5, 3});
  EXPECT_EQ(db.Get("cc", "k1")->version, (KeyVersion{5, 3}));
  EXPECT_FALSE(db.Get("cc", "gone").has_value());
}

TEST(StateDb, DeleteInUnknownNamespaceIsNoOpAndKeyCountStaysExact) {
  StateDb db;
  db.Put("cc1", "a", ToBytes("1"), KeyVersion{1, 0});
  db.Put("cc1", "b", ToBytes("2"), KeyVersion{1, 1});
  db.Put("cc2", "a", ToBytes("3"), KeyVersion{1, 2});
  EXPECT_EQ(db.KeyCount(), 3u);
  db.Delete("nope", "a");
  db.Delete("cc2", "missing");
  EXPECT_EQ(db.KeyCount(), 3u);
  EXPECT_FALSE(db.Get("nope", "a").has_value());
  db.Put("cc1", "a", ToBytes("4"), KeyVersion{2, 0});  // overwrite
  EXPECT_EQ(db.KeyCount(), 3u);
  db.Delete("cc1", "a");
  db.Delete("cc1", "a");
  EXPECT_EQ(db.KeyCount(), 2u);
  EXPECT_FALSE(db.Get("cc1", "a").has_value());
  EXPECT_EQ(proto::ToString(db.Get("cc2", "a")->value), "3");
}

// ---------------------------------------------------------------- helpers

proto::TransactionEnvelope TxRW(
    const std::string& tx_id,
    std::vector<std::pair<std::string, std::optional<KeyVersion>>> reads,
    std::vector<std::string> writes) {
  proto::TransactionEnvelope env;
  env.channel_id = "ch";
  env.tx_id = tx_id;
  env.chaincode_id = "cc";
  proto::NsReadWriteSet ns;
  ns.ns = "cc";
  for (auto& [k, ver] : reads) ns.reads.push_back(proto::KVRead{k, ver});
  for (auto& k : writes) {
    ns.writes.push_back(proto::KVWrite{k, ToBytes("v"), false});
  }
  env.rwset.ns_rwsets.push_back(std::move(ns));
  return env;
}

proto::BlockPtr MakeBlock(std::uint64_t num, const crypto::Digest* prev,
                          std::vector<proto::TransactionEnvelope> txs) {
  return std::make_shared<proto::Block>(proto::Block::Make(num, prev, txs));
}

// ------------------------------------------------------------------- MVCC

TEST(Mvcc, FreshKeyReadOfNulloptIsValid) {
  StateDb db;
  auto block = MakeBlock(0, nullptr, {TxRW("t1", {{"k", std::nullopt}}, {"k"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kValid);
  EXPECT_EQ(result.valid_count, 1u);
}

TEST(Mvcc, StaleReadVersionConflicts) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{3, 0});
  auto block =
      MakeBlock(4, nullptr, {TxRW("t1", {{"k", KeyVersion{2, 0}}}, {"k"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kMvccReadConflict);
  EXPECT_EQ(result.conflict_count, 1u);
}

TEST(Mvcc, MatchingReadVersionIsValid) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{3, 1});
  auto block =
      MakeBlock(4, nullptr, {TxRW("t1", {{"k", KeyVersion{3, 1}}}, {})});
  EXPECT_EQ(MvccValidator::Validate(*block, db).codes[0],
            ValidationCode::kValid);
}

TEST(Mvcc, ReadOfMissingKeyThatExistsConflicts) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  auto block = MakeBlock(2, nullptr, {TxRW("t1", {{"k", std::nullopt}}, {})});
  EXPECT_EQ(MvccValidator::Validate(*block, db).codes[0],
            ValidationCode::kMvccReadConflict);
}

TEST(Mvcc, IntraBlockWriteConflictsLaterRead) {
  // t1 writes k; t2 read k at the pre-block version -> conflict (Fabric's
  // in-block pending view).
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  auto block = MakeBlock(
      2, nullptr,
      {TxRW("t1", {{"k", KeyVersion{1, 0}}}, {"k"}),
       TxRW("t2", {{"k", KeyVersion{1, 0}}}, {"k"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kValid);
  EXPECT_EQ(result.codes[1], ValidationCode::kMvccReadConflict);
}

TEST(Mvcc, InvalidTxDoesNotPoisonPendingView) {
  // t1 is pre-flagged invalid (VSCC); its write must NOT enter the pending
  // view, so t2's read at the committed version stays valid.
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  auto block = MakeBlock(
      2, nullptr,
      {TxRW("t1", {}, {"k"}), TxRW("t2", {{"k", KeyVersion{1, 0}}}, {})});
  std::vector<ValidationCode> pre = {ValidationCode::kBadSignature,
                                     ValidationCode::kValid};
  const auto result = MvccValidator::Validate(*block, db, &pre);
  EXPECT_EQ(result.codes[0], ValidationCode::kBadSignature);
  EXPECT_EQ(result.codes[1], ValidationCode::kValid);
}

TEST(Mvcc, IndependentKeysDoNotConflict) {
  StateDb db;
  auto block = MakeBlock(0, nullptr,
                         {TxRW("t1", {{"a", std::nullopt}}, {"a"}),
                          TxRW("t2", {{"b", std::nullopt}}, {"b"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.valid_count, 2u);
}

TEST(Mvcc, CommitAppliesOnlyValidWrites) {
  StateDb db;
  auto block = MakeBlock(0, nullptr,
                         {TxRW("t1", {}, {"a"}), TxRW("t2", {}, {"b"})});
  std::vector<ValidationCode> codes = {ValidationCode::kValid,
                                       ValidationCode::kMvccReadConflict};
  MvccValidator::Commit(*block, codes, db);
  EXPECT_TRUE(db.Get("cc", "a").has_value());
  EXPECT_FALSE(db.Get("cc", "b").has_value());
  EXPECT_EQ(db.Get("cc", "a")->version, (KeyVersion{0, 0}));
  EXPECT_EQ(db.Height(), 1u);
}

TEST(Mvcc, BlindWritesNeverConflict) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{9, 9});
  auto block = MakeBlock(10, nullptr,
                         {TxRW("t1", {}, {"k"}), TxRW("t2", {}, {"k"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.valid_count, 2u);
}

TEST(Mvcc, DeleteInBlockMakesLaterNulloptReadValid) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  proto::TransactionEnvelope del = TxRW("t1", {}, {});
  del.rwset.ns_rwsets[0].writes.push_back(proto::KVWrite{"k", {}, true});
  auto block = MakeBlock(2, nullptr,
                         {del, TxRW("t2", {{"k", std::nullopt}}, {})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kValid);
  EXPECT_EQ(result.codes[1], ValidationCode::kValid);
}

TEST(Mvcc, IntraBlockWriteInOtherNamespaceDoesNotConflict) {
  // t1 writes ("cc1", "k"); t2 read ("cc2", "k") at its committed version.
  // The pending view is per namespace, so t2 stays valid.
  StateDb db;
  db.Put("cc2", "k", ToBytes("v"), KeyVersion{1, 0});
  proto::TransactionEnvelope writer = TxRW("t1", {}, {"k"});
  writer.rwset.ns_rwsets[0].ns = "cc1";
  proto::TransactionEnvelope reader = TxRW("t2", {{"k", KeyVersion{1, 0}}}, {});
  reader.rwset.ns_rwsets[0].ns = "cc2";
  auto block = MakeBlock(2, nullptr, {writer, reader});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kValid);
  EXPECT_EQ(result.codes[1], ValidationCode::kValid);
  EXPECT_EQ(result.valid_count, 2u);
}

// ------------------------------------------------------------- BlockStore

TEST(BlockStore, AppendAndLookup) {
  BlockStore store;
  auto b0 = MakeBlock(0, nullptr, {TxRW("t1", {}, {"a"})});
  store.Append(b0, {ValidationCode::kValid});
  EXPECT_EQ(store.Height(), 1u);
  EXPECT_EQ(store.GetBlock(0), b0);
  EXPECT_EQ(store.GetBlock(1), nullptr);
  EXPECT_TRUE(store.HasTransaction("t1"));
  EXPECT_FALSE(store.HasTransaction("t2"));
  const auto loc = store.FindTransaction("t1");
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->block_num, 0u);
  EXPECT_EQ(loc->tx_index, 0u);
  ASSERT_EQ(store.CodesFor(0).size(), 1u);
  EXPECT_EQ(store.CodesFor(0)[0], ValidationCode::kValid);
  EXPECT_GT(store.StoredBytes(), 0u);
}

TEST(BlockStore, ResubmittedTxIdStaysVisibleWhileAnOccurrenceIsResident) {
  BlockStore store;
  store.SetRetention(2);
  store.Append(MakeBlock(0, nullptr, {TxRW("dup", {}, {"a"})}));
  store.Append(MakeBlock(1, nullptr, {TxRW("dup", {}, {"a"})}));
  store.Append(MakeBlock(2, nullptr, {TxRW("other", {}, {"b"})}));
  ASSERT_EQ(store.FirstBlockNumber(), 1u);
  ASSERT_EQ(store.GetBlock(1)->transactions[0].tx_id, "dup");
  EXPECT_TRUE(store.HasTransaction("dup"));
  const auto loc = store.FindTransaction("dup");
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->block_num, 1u);
  EXPECT_EQ(loc->tx_index, 0u);

  // Once the last occurrence is pruned, the id is gone.
  store.Append(MakeBlock(3, nullptr, {TxRW("late", {}, {"c"})}));
  EXPECT_FALSE(store.HasTransaction("dup"));
  EXPECT_TRUE(store.HasTransaction("other"));
  EXPECT_TRUE(store.HasTransaction("late"));
}

TEST(BlockStore, RepeatedTxIdPointsAtItsNewestResidentOccurrence) {
  BlockStore store;
  store.SetRetention(1);
  store.Append(MakeBlock(0, nullptr, {TxRW("x", {}, {"a"}),
                                      TxRW("x", {}, {"a"})}));
  EXPECT_EQ(store.FindTransaction("x")->tx_index, 1u);
  store.Append(MakeBlock(1, nullptr, {TxRW("y", {}, {"b"}),
                                      TxRW("x", {}, {"a"})}));
  const auto loc = store.FindTransaction("x");
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->block_num, 1u);
  EXPECT_EQ(loc->tx_index, 1u);
  store.Append(MakeBlock(2, nullptr, {}));
  EXPECT_FALSE(store.HasTransaction("x"));
  EXPECT_FALSE(store.HasTransaction("y"));
}

TEST(BlockStore, IndexLookupsWorkAfterPruning) {
  BlockStore store;
  store.SetRetention(2);
  for (std::uint64_t n = 0; n < 5; ++n) {
    const std::string id = "t" + std::to_string(n);
    store.Append(MakeBlock(n, nullptr, {TxRW(id, {}, {"k"}),
                                        TxRW(id + "b", {}, {"k"})}),
                 {ValidationCode::kValid, ValidationCode::kMvccReadConflict});
  }
  EXPECT_EQ(store.Height(), 5u);
  EXPECT_EQ(store.ResidentBlocks(), 2u);
  EXPECT_EQ(store.TxCount(), 10u);
  for (const std::string id : {"t0", "t1", "t2", "t0b", "t2b"}) {
    EXPECT_FALSE(store.HasTransaction(id)) << id;
  }
  const auto loc = store.FindTransaction("t4b");
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->block_num, 4u);
  EXPECT_EQ(loc->tx_index, 1u);
  EXPECT_TRUE(store.HasTransaction("t3"));
  EXPECT_EQ(store.GetBlock(2), nullptr);
  ASSERT_NE(store.GetBlock(3), nullptr);
  EXPECT_EQ(store.GetBlock(3)->transactions[1].tx_id, "t3b");
  EXPECT_TRUE(store.CodesFor(2).empty());
  EXPECT_EQ(store.CodesFor(4)[1], ValidationCode::kMvccReadConflict);
}

// ------------------------------------------------------------- Blockchain

TEST(Blockchain, AppendsLinkedBlocks) {
  Blockchain chain;
  auto b0 = MakeBlock(0, nullptr, {TxRW("t1", {}, {"a"})});
  EXPECT_TRUE(chain.Append(b0));
  const auto tip = chain.TipHash();
  auto b1 = MakeBlock(1, &tip, {TxRW("t2", {}, {"b"})});
  EXPECT_TRUE(chain.Append(b1));
  EXPECT_EQ(chain.Height(), 2u);
  EXPECT_TRUE(chain.Audit().ok);
}

TEST(Blockchain, RejectsWrongNumber) {
  Blockchain chain;
  auto b5 = MakeBlock(5, nullptr, {});
  EXPECT_FALSE(chain.Append(b5));
  EXPECT_EQ(chain.Height(), 0u);
}

TEST(Blockchain, RejectsWrongPrevHash) {
  Blockchain chain;
  EXPECT_TRUE(chain.Append(MakeBlock(0, nullptr, {})));
  crypto::Digest wrong{};
  wrong[0] = 0xAA;
  EXPECT_FALSE(chain.Append(MakeBlock(1, &wrong, {})));
}

TEST(Blockchain, RejectsTamperedDataHash) {
  Blockchain chain;
  auto block = std::make_shared<proto::Block>(
      proto::Block::Make(0, nullptr, {TxRW("t1", {}, {"a"})}));
  block->transactions.Mutable(0).tx_id = "tampered";
  block->InvalidateCaches();
  std::string reason;
  EXPECT_FALSE(chain.ValidateLinkage(*block, &reason));
  EXPECT_EQ(reason, "data-hash mismatch");
}

TEST(Blockchain, AuditDetectsDeepTampering) {
  Blockchain chain;
  auto b0 = std::make_shared<proto::Block>(
      proto::Block::Make(0, nullptr, {TxRW("t1", {}, {"a"})}));
  chain.Append(b0);
  const auto tip = chain.TipHash();
  chain.Append(MakeBlock(1, &tip, {TxRW("t2", {}, {"b"})}));
  ASSERT_TRUE(chain.Audit().ok);

  // Tamper with the stored (shared) block 0 in place.
  b0->transactions.Mutable(0).rwset.ns_rwsets[0].writes[0].key = "evil";
  b0->InvalidateCaches();
  const auto audit = chain.Audit();
  EXPECT_FALSE(audit.ok);
  EXPECT_EQ(audit.bad_block, 0u);
}

TEST(Blockchain, MutableCopyLeavesTheSharedEnvelopeIntact) {
  crypto::MspRegistry msps;
  const crypto::Identity client =
      msps.AddOrganization("ClientOrgMSP").Enroll("app0", crypto::Role::kClient);
  proto::TransactionEnvelope tx = TxRW("t1", {}, {"a"});
  tx.creator_cert = client.Cert().Serialize();
  tx.client_signature = client.Sign(tx.SignedBody());
  const auto original = MakeBlock(0, nullptr, {tx});
  const proto::EnvelopePtr shared = original->transactions.Ptr(0);
  ASSERT_TRUE(shared->VerifiedSigners(msps).has_value());
  const crypto::Digest hash = original->DataHash();

  proto::Block copy = *original;
  copy.transactions.Mutable(0).tx_id = "tampered";
  copy.InvalidateCaches();

  // The original keeps the same envelope, its data-hash memo and its
  // verified-signers memo.
  EXPECT_EQ(original->transactions.Ptr(0), shared);
  EXPECT_EQ(original->transactions[0].tx_id, "t1");
  EXPECT_EQ(original->DataHash(), hash);
  EXPECT_EQ(original->DataHash(), original->header.data_hash);
  EXPECT_TRUE(shared->VerifiedSigners(msps).has_value());
  EXPECT_TRUE(Blockchain().ValidateLinkage(*original, nullptr));

  // The copy holds its own envelope, which no longer verifies, and its data
  // hash no longer matches the header it kept.
  EXPECT_NE(copy.transactions.Ptr(0), shared);
  EXPECT_EQ(copy.header, original->header);
  EXPECT_FALSE(copy.transactions[0].VerifiedSigners(msps).has_value());
  EXPECT_NE(copy.DataHash(), copy.header.data_hash);
  std::string reason;
  EXPECT_FALSE(Blockchain().ValidateLinkage(copy, &reason));
  EXPECT_EQ(reason, "data-hash mismatch");
}

// ------------------------------------------------------------ HistoryIndex

TEST(HistoryIndex, TracksValidWritesOnly) {
  HistoryIndex idx;
  auto block = MakeBlock(3, nullptr,
                         {TxRW("t1", {}, {"k"}), TxRW("t2", {}, {"k"})});
  idx.IndexBlock(*block, {ValidationCode::kValid,
                          ValidationCode::kMvccReadConflict});
  const auto& hist = idx.HistoryFor("cc", "k");
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0].tx_id(), "t1");
  EXPECT_EQ(hist[0].block_num, 3u);
}

TEST(HistoryIndex, ChronologicalAcrossBlocks) {
  HistoryIndex idx;
  auto b0 = MakeBlock(0, nullptr, {TxRW("t1", {}, {"k"})});
  auto b1 = MakeBlock(1, nullptr, {TxRW("t2", {}, {"k"})});
  idx.IndexBlock(*b0, {ValidationCode::kValid});
  idx.IndexBlock(*b1, {ValidationCode::kValid});
  const auto& hist = idx.HistoryFor("cc", "k");
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0].tx_id(), "t1");
  EXPECT_EQ(hist[1].tx_id(), "t2");
}

TEST(HistoryIndex, UnknownKeyEmpty) {
  HistoryIndex idx;
  EXPECT_TRUE(idx.HistoryFor("cc", "never").empty());
}

TEST(HistoryIndex, EntriesOutliveThePrunedBlock) {
  BlockStore store;
  store.SetRetention(1);
  HistoryIndex idx;
  proto::TransactionEnvelope del = TxRW("t2", {}, {});
  del.rwset.ns_rwsets[0].writes.push_back(proto::KVWrite{"k", {}, true});
  auto b0 = MakeBlock(0, nullptr, {TxRW("t1", {}, {"k"}), del});
  store.Append(b0, {ValidationCode::kValid, ValidationCode::kValid});
  idx.IndexBlock(*b0, {ValidationCode::kValid, ValidationCode::kValid});
  store.Append(MakeBlock(1, nullptr, {}));
  ASSERT_EQ(store.GetBlock(0), nullptr);
  b0.reset();  // the history index now holds the only references

  const auto& hist = idx.HistoryFor("cc", "k");
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0].tx_id(), "t1");
  EXPECT_EQ(proto::ToString(hist[0].value()), "v");
  EXPECT_FALSE(hist[0].is_delete());
  EXPECT_EQ(hist[1].tx_id(), "t2");
  EXPECT_TRUE(hist[1].is_delete());
  EXPECT_EQ(hist[1].block_num, 0u);
  EXPECT_EQ(hist[1].tx_index, 1u);
}

TEST(HistoryIndex, PerKeyCapReleasesDroppedEnvelopes) {
  HistoryIndex idx;
  idx.SetPerKeyCap(1);
  auto b0 = MakeBlock(0, nullptr, {TxRW("t1", {}, {"k"})});
  const proto::EnvelopePtr first = b0->transactions.Ptr(0);
  const long before = first.use_count();
  idx.IndexBlock(*b0, {ValidationCode::kValid});
  EXPECT_EQ(first.use_count(), before + 1);

  auto b1 = MakeBlock(1, nullptr, {TxRW("t2", {}, {"k"})});
  idx.IndexBlock(*b1, {ValidationCode::kValid});
  EXPECT_EQ(first.use_count(), before);
  const auto& hist = idx.HistoryFor("cc", "k");
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0].tx_id(), "t2");
}

TEST(HistoryIndex, KeysAreTrackedPerNamespace) {
  HistoryIndex idx;
  proto::TransactionEnvelope other = TxRW("t2", {}, {"k"});
  other.rwset.ns_rwsets[0].ns = "cc2";
  auto block = MakeBlock(0, nullptr, {TxRW("t1", {}, {"k"}), other});
  idx.IndexBlock(*block, {ValidationCode::kValid, ValidationCode::kValid});
  EXPECT_EQ(idx.TrackedKeys(), 2u);
  ASSERT_EQ(idx.HistoryFor("cc", "k").size(), 1u);
  EXPECT_EQ(idx.HistoryFor("cc", "k")[0].tx_id(), "t1");
  ASSERT_EQ(idx.HistoryFor("cc2", "k").size(), 1u);
  EXPECT_EQ(idx.HistoryFor("cc2", "k")[0].tx_id(), "t2");
}

}  // namespace
}  // namespace fabricsim::ledger
