// Range queries and phantom-read protection (Fabric's GetStateByRange +
// range-query info validation).
#include <gtest/gtest.h>

#include <memory>

#include "chaincode/kvwrite.h"
#include "ledger/mvcc.h"
#include "ledger/state_db.h"

namespace fabricsim {
namespace {

using ledger::StateDb;
using proto::KeyVersion;
using proto::ToBytes;
using proto::ValidationCode;

StateDb SeededDb() {
  StateDb db;
  db.Put("cc", "a", ToBytes("1"), KeyVersion{1, 0});
  db.Put("cc", "b", ToBytes("2"), KeyVersion{1, 1});
  db.Put("cc", "c", ToBytes("3"), KeyVersion{1, 2});
  db.Put("cc", "d", ToBytes("4"), KeyVersion{2, 0});
  db.Put("other", "b2", ToBytes("x"), KeyVersion{1, 0});
  return db;
}

TEST(StateDbRange, ScansInKeyOrderWithinNamespace) {
  StateDb db = SeededDb();
  const auto all = db.GetRange("cc", "", "");
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[3].first, "d");
}

TEST(StateDbRange, HalfOpenInterval) {
  StateDb db = SeededDb();
  const auto some = db.GetRange("cc", "b", "d");
  ASSERT_EQ(some.size(), 2u);
  EXPECT_EQ(some[0].first, "b");
  EXPECT_EQ(some[1].first, "c");
}

TEST(StateDbRange, EmptyEndScansToNamespaceEnd) {
  StateDb db = SeededDb();
  const auto tail = db.GetRange("cc", "c", "");
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[1].first, "d");
}

TEST(StateDbRange, DoesNotLeakAcrossNamespaces) {
  StateDb db = SeededDb();
  // "other" holds b2; a scan of "cc" must never see it.
  for (const auto& [key, value] : db.GetRange("cc", "", "")) {
    (void)value;
    EXPECT_NE(key, "b2");
  }
  EXPECT_EQ(db.GetRange("other", "", "").size(), 1u);
}

TEST(StateDbRange, EmptyRange) {
  StateDb db = SeededDb();
  EXPECT_TRUE(db.GetRange("cc", "x", "z").empty());
  EXPECT_TRUE(db.GetRange("nonexistent", "", "").empty());
}

TEST(StateDbRange, WarmIndexReflectsInsertDeleteAndOverwrite) {
  StateDb db = SeededDb();
  ASSERT_EQ(db.GetRange("cc", "", "").size(), 4u);  // warm the index
  db.Put("cc", "bb", ToBytes("5"), KeyVersion{3, 0});
  db.Delete("cc", "c");
  db.Put("cc", "a", ToBytes("6"), KeyVersion{3, 1});
  const auto all = db.GetRange("cc", "", "");
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(proto::ToString(all[0].second.value), "6");
  EXPECT_EQ(all[0].second.version, (KeyVersion{3, 1}));
  EXPECT_EQ(all[1].first, "b");
  EXPECT_EQ(all[2].first, "bb");
  EXPECT_EQ(all[3].first, "d");
  EXPECT_EQ(db.GetRange("other", "", "").size(), 1u);
}

TEST(StateDbRange, CopyScansItsOwnKeys) {
  auto db = std::make_unique<StateDb>(SeededDb());
  ASSERT_EQ(db->GetRange("cc", "", "").size(), 4u);  // warm the index
  StateDb copy = *db;
  db.reset();
  // An overwrite keeps a warm index warm, so the copy must own its index.
  copy.Put("cc", "b", ToBytes("7"), KeyVersion{3, 0});
  const auto all = copy.GetRange("cc", "b", "");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "b");
  EXPECT_EQ(proto::ToString(all[0].second.value), "7");
  EXPECT_EQ(all[0].second.version, (KeyVersion{3, 0}));
  EXPECT_EQ(all[2].first, "d");
}

TEST(RangeRead, DigestDetectsAnyChange) {
  std::vector<std::pair<std::string, KeyVersion>> results = {
      {"a", {1, 0}}, {"b", {1, 1}}};
  const auto base = proto::RangeRead::HashResults(results);
  auto extra = results;
  extra.emplace_back("c", KeyVersion{1, 2});
  EXPECT_NE(proto::RangeRead::HashResults(extra), base);  // phantom insert
  auto bumped = results;
  bumped[0].second = KeyVersion{5, 0};
  EXPECT_NE(proto::RangeRead::HashResults(bumped), base);  // version change
  auto fewer = results;
  fewer.pop_back();
  EXPECT_NE(proto::RangeRead::HashResults(fewer), base);  // phantom delete
  EXPECT_EQ(proto::RangeRead::HashResults(results), base);  // stable
}

TEST(Shim, GetStateByRangeRecordsRangeInfo) {
  StateDb db = SeededDb();
  proto::ChaincodeInvocation inv;
  inv.chaincode_id = "cc";
  chaincode::ChaincodeStub stub(db, "cc", inv);
  const auto results = stub.GetStateByRange("a", "c");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(proto::ToString(results[1].second), "2");
  const auto rwset = std::move(stub).TakeRwSet();
  ASSERT_EQ(rwset.ns_rwsets[0].range_reads.size(), 1u);
  EXPECT_EQ(rwset.ns_rwsets[0].range_reads[0].start_key, "a");
  EXPECT_EQ(rwset.ns_rwsets[0].range_reads[0].end_key, "c");
}

TEST(RwSet, RangeReadsSurviveSerialization) {
  StateDb db = SeededDb();
  proto::ChaincodeInvocation inv;
  inv.chaincode_id = "cc";
  chaincode::ChaincodeStub stub(db, "cc", inv);
  stub.GetStateByRange("a", "");
  const auto rwset = std::move(stub).TakeRwSet();
  const auto parsed = proto::TxReadWriteSet::Deserialize(rwset.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, rwset);
}

// ----------------------------------------------------- phantom detection

proto::TransactionEnvelope RangeTx(const std::string& tx_id,
                                   const StateDb& db,
                                   const std::string& start,
                                   const std::string& end,
                                   const std::string& write_key) {
  proto::TransactionEnvelope env;
  env.tx_id = tx_id;
  env.chaincode_id = "cc";
  proto::NsReadWriteSet ns;
  ns.ns = "cc";
  std::vector<std::pair<std::string, KeyVersion>> results;
  for (const auto& [key, value] : db.GetRange("cc", start, end)) {
    results.emplace_back(key, value.version);
  }
  proto::RangeRead rr;
  rr.start_key = start;
  rr.end_key = end;
  rr.result_digest = proto::RangeRead::HashResults(results);
  ns.range_reads.push_back(std::move(rr));
  ns.writes.push_back(proto::KVWrite{write_key, ToBytes("sum"), false});
  env.rwset.ns_rwsets.push_back(std::move(ns));
  return env;
}

proto::TransactionEnvelope InsertTx(const std::string& tx_id,
                                    const std::string& key) {
  proto::TransactionEnvelope env;
  env.tx_id = tx_id;
  env.chaincode_id = "cc";
  proto::NsReadWriteSet ns;
  ns.ns = "cc";
  ns.writes.push_back(proto::KVWrite{key, ToBytes("new"), false});
  env.rwset.ns_rwsets.push_back(std::move(ns));
  return env;
}

proto::BlockPtr MakeBlock(std::uint64_t num,
                          std::vector<proto::TransactionEnvelope> txs) {
  return std::make_shared<proto::Block>(
      proto::Block::Make(num, nullptr, std::move(txs)));
}

TEST(Phantom, UnchangedRangeStaysValid) {
  StateDb db = SeededDb();
  auto block = MakeBlock(3, {RangeTx("t1", db, "a", "d", "sum")});
  const auto result = ledger::MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kValid);
}

TEST(Phantom, InsertIntoRangeByEarlierTxConflicts) {
  StateDb db = SeededDb();
  // t1 inserts "bb" into [a, d); t2's range scan (simulated pre-block)
  // becomes stale: phantom.
  auto block = MakeBlock(
      3, {InsertTx("t1", "bb"), RangeTx("t2", db, "a", "d", "sum")});
  const auto result = ledger::MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kValid);
  EXPECT_EQ(result.codes[1], ValidationCode::kMvccReadConflict);
}

TEST(Phantom, InsertOutsideRangeDoesNotConflict) {
  StateDb db = SeededDb();
  auto block = MakeBlock(
      3, {InsertTx("t1", "zz"), RangeTx("t2", db, "a", "d", "sum")});
  const auto result = ledger::MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[1], ValidationCode::kValid);
}

TEST(Phantom, DeleteWithinRangeConflicts) {
  StateDb db = SeededDb();
  proto::TransactionEnvelope del;
  del.tx_id = "t1";
  del.chaincode_id = "cc";
  proto::NsReadWriteSet ns;
  ns.ns = "cc";
  ns.writes.push_back(proto::KVWrite{"b", {}, true});
  del.rwset.ns_rwsets.push_back(std::move(ns));

  auto block = MakeBlock(3, {del, RangeTx("t2", db, "a", "d", "sum")});
  const auto result = ledger::MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[1], ValidationCode::kMvccReadConflict);
}

TEST(Phantom, UpdateWithinRangeConflicts) {
  StateDb db = SeededDb();
  auto block = MakeBlock(
      3, {InsertTx("t1", "b"),  // overwrites key "b": version changes
          RangeTx("t2", db, "a", "d", "sum")});
  const auto result = ledger::MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[1], ValidationCode::kMvccReadConflict);
}

TEST(Phantom, CommittedInsertBetweenBlocksConflicts) {
  StateDb db = SeededDb();
  // The range tx simulated against the old state...
  auto stale = RangeTx("t2", db, "a", "d", "sum");
  // ...but an insert commits first (separate earlier block).
  db.Put("cc", "aa", ToBytes("new"), KeyVersion{3, 0});
  auto block = MakeBlock(4, {stale});
  const auto result = ledger::MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kMvccReadConflict);
}

TEST(Phantom, InvalidEarlierTxDoesNotCausePhantom) {
  StateDb db = SeededDb();
  auto block = MakeBlock(
      3, {InsertTx("t1", "bb"), RangeTx("t2", db, "a", "d", "sum")});
  std::vector<ValidationCode> pre = {ValidationCode::kBadSignature,
                                     ValidationCode::kValid};
  const auto result = ledger::MvccValidator::Validate(*block, db, &pre);
  EXPECT_EQ(result.codes[1], ValidationCode::kValid);  // t1's write ignored
}

TEST(Chaincode, ScanFunctionsWork) {
  StateDb db = SeededDb();
  chaincode::KvWriteChaincode cc;
  proto::ChaincodeInvocation inv;
  inv.chaincode_id = "kvwrite";
  inv.function = "scan";
  inv.args = {ToBytes("a"), ToBytes("c")};
  db.Put("kvwrite", "a", ToBytes("1"), KeyVersion{1, 0});
  db.Put("kvwrite", "b", ToBytes("2"), KeyVersion{1, 1});
  chaincode::ChaincodeStub stub(db, "kvwrite", inv);
  const auto r = cc.Invoke(stub);
  EXPECT_EQ(r.status, proto::EndorseStatus::kSuccess);
  EXPECT_EQ(proto::ToString(r.payload), "a=1,b=2");
}

TEST(Chaincode, ScanSumWriteRecordsRangeAndWrite) {
  StateDb db;
  db.Put("kvwrite", "k1", ToBytes("abc"), KeyVersion{1, 0});
  db.Put("kvwrite", "k2", ToBytes("de"), KeyVersion{1, 1});
  chaincode::KvWriteChaincode cc;
  proto::ChaincodeInvocation inv;
  inv.chaincode_id = "kvwrite";
  inv.function = "scan_sum_write";
  inv.args = {ToBytes("k"), ToBytes("l"), ToBytes("total")};
  chaincode::ChaincodeStub stub(db, "kvwrite", inv);
  ASSERT_EQ(cc.Invoke(stub).status, proto::EndorseStatus::kSuccess);
  const auto rwset = std::move(stub).TakeRwSet();
  EXPECT_EQ(rwset.ns_rwsets[0].range_reads.size(), 1u);
  ASSERT_EQ(rwset.WriteCount(), 1u);
  EXPECT_EQ(proto::ToString(rwset.ns_rwsets[0].writes[0].value), "5");
}

}  // namespace
}  // namespace fabricsim
