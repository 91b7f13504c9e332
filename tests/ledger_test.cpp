#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "crypto/ca.h"
#include "ledger/block_store.h"
#include "ledger/blockchain.h"
#include "ledger/flat_index.h"
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

// -------------------------------------------------------------- FlatIndex
//
// The payload is a key id and the confirm predicate compares ids, so each
// test picks the hashes and can force collisions. An index that has seen an
// insert has 8 slots until its seventh entry doubles it; the home slot is
// the hash modulo the slot count.

using Index = FlatIndex<std::uint32_t>;

auto Is(std::uint32_t id) {
  return [id](std::uint32_t payload) { return payload == id; };
}

/// Expects exactly `present` (hash, id) to be found, and `absent` not.
void ExpectContents(const Index& index,
                    const std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                        present,
                    const std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                        absent = {}) {
  EXPECT_EQ(index.Size(), present.size());
  for (const auto& [hash, id] : present) {
    const std::uint32_t* found = index.Find(hash, Is(id));
    ASSERT_NE(found, nullptr) << "id " << id << " hash " << hash;
    EXPECT_EQ(*found, id);
  }
  for (const auto& [hash, id] : absent) {
    EXPECT_EQ(index.Find(hash, Is(id)), nullptr) << "id " << id;
  }
}

TEST(FlatIndex, EmptyIndexFindsAndErasesNothing) {
  Index index;
  EXPECT_EQ(index.Size(), 0u);
  EXPECT_EQ(index.Find(5, Is(1)), nullptr);
  EXPECT_FALSE(index.Erase(5, Is(1)));
}

TEST(FlatIndex, EveryKeyInOneCluster) {
  // Six ids, one hash: the predicate alone tells them apart. Hash 0 is
  // legal too.
  for (const std::uint64_t hash : {std::uint64_t{3}, std::uint64_t{0}}) {
    Index index;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> all;
    for (std::uint32_t id = 0; id < 6; ++id) {
      index.Insert(hash, id);
      all.emplace_back(hash, id);
    }
    ExpectContents(index, all, {{hash, 6}, {hash + 8, 0}, {hash + 2, 0}});
  }
}

TEST(FlatIndex, ClusterWrapsPastTheEnd) {
  // Homes 6 and 7 of 8 slots: the cluster runs 6, 7, 0, 1, 2, 3.
  Index index;
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> all = {
      {6, 0}, {7, 1}, {14, 2}, {6, 3}, {15, 4}, {7, 5}};
  for (const auto& [hash, id] : all) index.Insert(hash, id);
  ExpectContents(index, all, {{7, 9}, {0, 0}, {22, 9}});
  // Erase at the start of the cluster: the wrapped members shift back
  // across the end of the table.
  ASSERT_TRUE(index.Erase(6, Is(0)));
  ExpectContents(index, {{7, 1}, {14, 2}, {6, 3}, {15, 4}, {7, 5}}, {{6, 0}});
  ASSERT_TRUE(index.Erase(7, Is(1)));
  ExpectContents(index, {{14, 2}, {6, 3}, {15, 4}, {7, 5}}, {{7, 1}});
}

TEST(FlatIndex, EraseFromTheMiddleOfAClusterKeepsTheRestReachable) {
  // A cluster of mixed homes (slots 2..7): erasing any one member must
  // leave every other reachable, whichever shifts back and whichever must
  // stay (a member already at its home, or whose home follows the hole).
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> all = {
      {2, 0}, {3, 1}, {2, 2}, {3, 3}, {5, 4}, {2, 5}};
  for (std::size_t victim = 0; victim < all.size(); ++victim) {
    Index index;
    for (const auto& [hash, id] : all) index.Insert(hash, id);
    ASSERT_TRUE(index.Erase(all[victim].first, Is(all[victim].second)));
    EXPECT_FALSE(index.Erase(all[victim].first, Is(all[victim].second)));
    auto rest = all;
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(victim));
    ExpectContents(index, rest, {all[victim]});
    // Emptying the table one by one keeps every survivor reachable too.
    while (!rest.empty()) {
      ASSERT_TRUE(index.Erase(rest.front().first, Is(rest.front().second)));
      rest.erase(rest.begin());
      ExpectContents(index, rest);
    }
  }
}

TEST(FlatIndex, GrowsWhileAClusterIsInPlace) {
  // Seven hashes that all home at slot 5 of 8; after the table doubles
  // they home at 5 and 13, and the ids beyond the seventh repeat them.
  const auto hash_of = [](std::uint32_t id) -> std::uint64_t {
    return 5 + 8 * (id % 7);
  };
  Index index;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> all;
  for (std::uint32_t id = 0; id < 40; ++id) {
    index.Insert(hash_of(id), id);
    all.emplace_back(hash_of(id), id);
    ExpectContents(index, all);
  }
  for (std::uint32_t id = 0; id < 40; id += 3) {
    ASSERT_TRUE(index.Erase(hash_of(id), Is(id)));
  }
  std::erase_if(all, [](const auto& e) { return e.second % 3 == 0; });
  ExpectContents(index, all, {{hash_of(0), 0}, {hash_of(39), 39}});
}

TEST(FlatIndex, RePointingAnExistingKey) {
  Index index;
  index.Insert(4, 1);
  index.Insert(4, 2);
  std::uint32_t* slot = index.Find(4, Is(1));
  ASSERT_NE(slot, nullptr);
  *slot = 7;
  EXPECT_EQ(index.Size(), 2u);
  ExpectContents(index, {{4, 7}, {4, 2}}, {{4, 1}});
  ASSERT_TRUE(index.Erase(4, Is(7)));
  ExpectContents(index, {{4, 2}}, {{4, 7}});
}

TEST(FlatIndex, ReservedIndexHoldsItsEntriesWithoutGrowing) {
  // Reserve(100) sizes the table for 100 entries at 3/4 load (256 slots),
  // so hashes 0..99 each sit in their home slot and hash + 256 collides
  // with them; a later Reserve on a filled index is a no-op.
  Index index;
  index.Reserve(100);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> all;
  for (std::uint32_t id = 1; id <= 100; ++id) {
    index.Insert(id, id);
    all.emplace_back(id, id);
  }
  index.Reserve(1000);
  index.Insert(1 + 256, 1000);
  all.emplace_back(1 + 256, 1000);
  ExpectContents(index, all, {{101, 101}, {1 + 512, 1}});
}

TEST(FlatIndex, CopiesAreDeep) {
  Index index;
  index.Insert(1, 1);
  Index copy = index;
  index.Insert(1, 2);
  ASSERT_TRUE(index.Erase(1, Is(1)));
  ExpectContents(copy, {{1, 1}}, {{1, 2}});
  ExpectContents(index, {{1, 2}}, {{1, 1}});
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

TEST(BlockStore, IdRepeatedInsideOneBlockFindsItsNewestPosition) {
  BlockStore store;
  store.Append(MakeBlock(0, nullptr, {TxRW("a", {}, {"k"}),
                                      TxRW("x", {}, {"k"}),
                                      TxRW("b", {}, {"k"}),
                                      TxRW("x", {}, {"k"}),
                                      TxRW("x", {}, {"k"})}));
  EXPECT_TRUE(store.HasTransaction("x"));
  const auto loc = store.FindTransaction("x");
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->block_num, 0u);
  EXPECT_EQ(loc->tx_index, 4u);
  EXPECT_EQ(store.FindTransaction("b")->tx_index, 2u);
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

TEST(BlockStore, SharedLogKeepsWhatItsSlowestViewReads) {
  auto log = std::make_shared<BlockLog>();
  BlockStore leader(log);
  BlockStore follower(log);
  leader.SetRetention(2);
  follower.SetRetention(2);
  std::vector<proto::BlockPtr> blocks;
  for (std::uint64_t n = 0; n < 6; ++n) {
    const std::string id = "t" + std::to_string(n);
    blocks.push_back(MakeBlock(n, nullptr, {TxRW(id, {}, {"k"})}));
    leader.Append(blocks.back(), {ValidationCode::kValid});
  }
  EXPECT_TRUE(follower.Follow());
  EXPECT_TRUE(follower.Follow());
  // The follower's window is blocks 0-1, so the log still holds all six,
  // and each view sees only its own window.
  EXPECT_EQ(log->ResidentBlocks(), 6u);
  EXPECT_EQ(log->IndexedTransactions(), 6u);
  EXPECT_TRUE(follower.HasTransaction("t0"));
  EXPECT_FALSE(follower.HasTransaction("t2"));
  EXPECT_FALSE(leader.HasTransaction("t0"));
  EXPECT_TRUE(leader.HasTransaction("t5"));

  // Following advances the window and releases the blocks behind it.
  for (std::uint64_t n = 2; n < 5; ++n) EXPECT_TRUE(follower.Follow());
  EXPECT_TRUE(follower.Shared());
  EXPECT_EQ(follower.GetBlock(4), blocks[4]);
  EXPECT_EQ(follower.TxCount(), 5u);
  EXPECT_EQ(log->ResidentBlocks(), 3u);  // blocks 3-5
  EXPECT_EQ(log->IndexedTransactions(), 3u);

  // A view below the head may not append there (here: other codes). It
  // moves onto a private copy of its window first; the shared log then
  // serves the leader alone.
  EXPECT_THROW(follower.Append(blocks[5], {ValidationCode::kMvccReadConflict}),
               std::logic_error);
  EXPECT_EQ(follower.Height(), 5u);
  EXPECT_EQ(log->Height(), 6u);
  follower.Unshare();
  follower.Append(blocks[5], {ValidationCode::kMvccReadConflict});
  EXPECT_FALSE(follower.Shared());
  EXPECT_FALSE(leader.Shared());
  EXPECT_EQ(follower.CodesFor(5)[0], ValidationCode::kMvccReadConflict);
  EXPECT_EQ(leader.CodesFor(5)[0], ValidationCode::kValid);
  EXPECT_EQ(follower.GetBlock(4), blocks[4]);
  EXPECT_TRUE(follower.HasTransaction("t4"));
  EXPECT_EQ(log->ResidentBlocks(), 2u);  // the leader's window, blocks 4-5
}

TEST(BlockStore, ViewFollowsOnlyABlockItsLogHolds) {
  auto log = std::make_shared<BlockLog>();
  BlockStore a(log);
  BlockStore b(log);
  EXPECT_FALSE(b.Follow());  // nothing logged yet
  const auto block = MakeBlock(0, nullptr, {TxRW("t", {}, {"k"})});
  a.Append(block, {ValidationCode::kValid});
  EXPECT_TRUE(b.Follow());
  EXPECT_FALSE(b.Follow());  // at the head
  EXPECT_EQ(b.Height(), 1u);
  EXPECT_TRUE(b.Shared());
  EXPECT_EQ(b.GetBlock(0), block);
  EXPECT_EQ(b.StoredBytes(), block->WireSize());
  EXPECT_EQ(log->ResidentBlocks(), 1u);

  // A private store has no one else's block to follow.
  BlockStore alone;
  EXPECT_FALSE(alone.Follow());
  EXPECT_EQ(alone.Height(), 0u);
}

TEST(Blockchain, FollowChecksTheLinkageOfTheFollowersOwnBlock) {
  auto log = std::make_shared<BlockLog>();
  Blockchain leader(log);
  Blockchain follower(log);
  const auto b0 = MakeBlock(0, nullptr, {TxRW("t1", {}, {"a"})});
  ASSERT_TRUE(leader.Append(b0));
  // The follower's copy names another height: linkage fails, and the
  // follower stays where it was.
  EXPECT_FALSE(follower.Follow(*MakeBlock(1, nullptr, {})));
  EXPECT_EQ(follower.Height(), 0u);
  EXPECT_TRUE(follower.Follow(*b0));
  EXPECT_EQ(follower.TipHash(), leader.TipHash());
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

// --------------------------------------------------- BuildHistory (on demand)

std::string Numbered(const char* prefix, int n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

using BlockSink = std::function<void(const proto::Block&,
                                     const std::vector<ValidationCode>&)>;

// A committed run at the ledger layer: blocks of read-modify-writes (and a
// delete) over three keys, validated and committed in order as the
// committer does. The first and last transaction of each block touch the
// same key, so the last one conflicts and the run mixes valid and invalid
// writes. Each value is its writer's tx id.
// `on_commit` sees every block with its codes. Returns the invalid count.
std::size_t CommitRun(BlockStore& store, int blocks,
                      const BlockSink& on_commit) {
  StateDb db;
  std::size_t invalid = 0;
  for (int b = 0; b < blocks; ++b) {
    std::vector<proto::TransactionEnvelope> txs;
    for (int j = 0; j < 4; ++j) {
      const std::string key = Numbered("k", (b + j) % 3);
      proto::TransactionEnvelope env =
          TxRW(Numbered("t", b * 4 + j), {{key, db.GetVersion("cc", key)}}, {});
      env.rwset.ns_rwsets[0].writes.push_back(
          proto::KVWrite{key, ToBytes(env.tx_id), j == 1});
      txs.push_back(std::move(env));
    }
    auto block =
        MakeBlock(static_cast<std::uint64_t>(b), nullptr, std::move(txs));
    const MvccResult mvcc = MvccValidator::Validate(*block, db);
    MvccValidator::Commit(*block, mvcc.codes, db);
    invalid += mvcc.conflict_count;
    store.Append(block, mvcc.codes);
    on_commit(*block, mvcc.codes);
  }
  return invalid;
}

void ExpectSameHistory(const std::vector<KeyModification>& got,
                       const std::vector<KeyModification>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].block_num, want[i].block_num);
    EXPECT_EQ(got[i].tx_index, want[i].tx_index);
    EXPECT_EQ(got[i].tx_id(), want[i].tx_id());
    EXPECT_EQ(got[i].value(), want[i].value());
    EXPECT_EQ(got[i].is_delete(), want[i].is_delete());
  }
}

TEST(BuildHistory, MatchesTheIndexFedBlockByBlock) {
  BlockStore store;
  HistoryIndex incremental;
  std::size_t valid_writes = 0;
  const std::size_t invalid =
      CommitRun(store, 12, [&](const proto::Block& block,
                               const std::vector<ValidationCode>& codes) {
        incremental.IndexBlock(block, codes);
        for (const ValidationCode c : codes) {
          valid_writes += c == ValidationCode::kValid ? 1 : 0;
        }
      });
  ASSERT_GT(invalid, 0u);  // the run exercises the invalid-tx filter

  const HistoryIndex built = BuildHistory(store);
  EXPECT_EQ(built.TrackedKeys(), incremental.TrackedKeys());
  std::size_t entries = 0;
  for (int k = 0; k < 3; ++k) {
    const std::string key = Numbered("k", k);
    const auto& hist = built.HistoryFor("cc", key);
    ExpectSameHistory(hist, incremental.HistoryFor("cc", key));
    for (const KeyModification& m : hist) {
      EXPECT_EQ(store.CodesFor(m.block_num)[m.tx_index],
                ValidationCode::kValid);
      EXPECT_EQ(proto::ToString(m.value()), m.tx_id());
    }
    entries += hist.size();
  }
  EXPECT_EQ(entries, valid_writes);
}

TEST(BuildHistory, CoversResidentBlocksOnly) {
  BlockStore store;
  store.SetRetention(4);
  HistoryIndex full;
  CommitRun(store, 12, [&](const proto::Block& block,
                           const std::vector<ValidationCode>& codes) {
    full.IndexBlock(block, codes);
  });
  ASSERT_EQ(store.FirstBlockNumber(), 8u);

  const HistoryIndex built = BuildHistory(store);
  for (int k = 0; k < 3; ++k) {
    const std::string key = Numbered("k", k);
    std::vector<KeyModification> resident;
    for (const KeyModification& m : full.HistoryFor("cc", key)) {
      if (m.block_num >= store.FirstBlockNumber()) resident.push_back(m);
    }
    ExpectSameHistory(built.HistoryFor("cc", key), resident);
  }
}

}  // namespace
}  // namespace fabricsim::ledger
