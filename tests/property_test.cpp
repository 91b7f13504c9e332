// Cross-checking property tests: independent reference implementations
// validate the optimized ones on randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger/block_store.h"
#include "ledger/state_db.h"
#include "metrics/histogram.h"
#include "policy/evaluator.h"
#include "policy/parser.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace fabricsim {
namespace {

using crypto::Principal;
using crypto::Role;

// ---------------------------------------------------------------- policy

/// Reference satisfaction check: brute force over all signer->principal
/// assignments (each signer used at most once).
bool BruteForceSatisfied(const policy::Node& node,
                         std::vector<bool>& used,
                         const std::vector<Principal>& signers);

bool BruteForceOutOf(const policy::Node& node, std::size_t child_idx,
                     int still_needed, std::vector<bool>& used,
                     const std::vector<Principal>& signers) {
  if (still_needed == 0) return true;
  if (child_idx >= node.children.size()) return false;
  const int remaining = static_cast<int>(node.children.size() - child_idx);
  if (remaining < still_needed) return false;
  // Option 1: satisfy this child.
  {
    std::vector<bool> snapshot = used;
    if (BruteForceSatisfied(*node.children[child_idx], used, signers) &&
        BruteForceOutOf(node, child_idx + 1, still_needed - 1, used,
                        signers)) {
      return true;
    }
    used = snapshot;  // backtrack
  }
  // Option 2: skip this child.
  return BruteForceOutOf(node, child_idx + 1, still_needed, used, signers);
}

bool BruteForceSatisfied(const policy::Node& node, std::vector<bool>& used,
                         const std::vector<Principal>& signers) {
  if (node.kind == policy::NodeKind::kPrincipal) {
    for (std::size_t i = 0; i < signers.size(); ++i) {
      if (used[i]) continue;
      const bool match =
          signers[i].msp_id == node.principal.msp_id &&
          (signers[i].role == node.principal.role ||
           signers[i].role == Role::kAdmin);
      if (match) {
        used[i] = true;
        return true;  // principal leaves are interchangeable: any match is
                      // equivalent under the outer backtracking
      }
    }
    return false;
  }
  return BruteForceOutOf(node, 0, node.threshold, used, signers);
}

class PolicyCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(PolicyCrossCheck, EvaluatorMatchesBruteForceOnFlatPolicies) {
  // Flat OutOf(k, principals) policies: the greedy-leaf brute force above is
  // exact for these (leaves are interchangeable), giving an independent
  // oracle for the backtracking evaluator.
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  static const std::vector<std::string> kOrgs = {"A", "B", "C", "D"};

  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.NextInRange(1, 5));
    std::vector<Principal> ps;
    for (int i = 0; i < n; ++i) {
      ps.push_back(
          {kOrgs[static_cast<std::size_t>(rng.NextBelow(kOrgs.size()))],
           Role::kPeer});
    }
    const int k = static_cast<int>(rng.NextInRange(1, n));
    const auto pol = policy::EndorsementPolicy::KOutOf(k, ps);

    const int signer_count = static_cast<int>(rng.NextInRange(0, 6));
    std::vector<Principal> signers;
    for (int i = 0; i < signer_count; ++i) {
      const auto role = rng.NextBelow(8) == 0 ? Role::kAdmin : Role::kPeer;
      signers.push_back(
          {kOrgs[static_cast<std::size_t>(rng.NextBelow(kOrgs.size()))],
           role});
    }

    std::vector<bool> used(signers.size(), false);
    const bool expected = BruteForceSatisfied(pol.Root(), used, signers);
    EXPECT_EQ(policy::Satisfied(pol, signers), expected)
        << "policy=" << pol.ToString() << " signers=" << signer_count
        << " seed=" << GetParam() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyCrossCheck, ::testing::Range(0, 20));

TEST(PolicyCrossCheck, NestedPoliciesAgainstHandComputedTruth) {
  const auto pol = policy::MustParsePolicy(
      "OutOf(2,AND('A.peer','B.peer'),'C.peer',OR('A.peer','D.peer'))");
  struct Case {
    std::vector<Principal> signers;
    bool expected;
  };
  const Case cases[] = {
      {{{"C", Role::kPeer}, {"D", Role::kPeer}}, true},
      {{{"A", Role::kPeer}, {"B", Role::kPeer}, {"C", Role::kPeer}}, true},
      {{{"A", Role::kPeer}, {"B", Role::kPeer}}, false},  // AND + nothing else
      // A-signer can serve the OR branch; with C that is 2 of 3.
      {{{"A", Role::kPeer}, {"C", Role::kPeer}}, true},
      // The single A cannot serve both the AND and the OR.
      {{{"A", Role::kPeer}, {"B", Role::kPeer}, {"D", Role::kPeer}}, true},
      {{{"C", Role::kPeer}}, false},
      {{}, false},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(policy::Satisfied(pol, c.signers), c.expected);
  }
}

// ------------------------------------------------------------- histogram

/// Values spanning sub-bucket range through several octaves, with runs of
/// duplicates — the shapes the latency sketches actually see.
std::vector<sim::SimDuration> RandomDurations(sim::Rng& rng, std::size_t n) {
  std::vector<sim::SimDuration> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int octave = static_cast<int>(rng.NextBelow(40));
    auto v = static_cast<sim::SimDuration>(rng.NextBelow(1ULL << octave));
    values.push_back(v);
    if (rng.NextBelow(4) == 0) values.push_back(v);  // duplicate runs
  }
  return values;
}

TEST(HistogramProperty, MergeEquivalentToRecordingIntoOne) {
  // Splitting a dataset across K histograms and merging must give exactly
  // the state of recording everything into one — streaming mode's windowed
  // accumulators rely on this for bit-identical reports.
  sim::Rng rng(4242);
  for (int round = 0; round < 25; ++round) {
    const auto values = RandomDurations(rng, 400);
    const std::size_t parts = 1 + rng.NextBelow(6);
    metrics::Histogram whole;
    std::vector<metrics::Histogram> shards(parts);
    for (std::size_t i = 0; i < values.size(); ++i) {
      whole.Record(values[i]);
      shards[rng.NextBelow(parts)].Record(values[i]);
    }
    metrics::Histogram merged;
    for (const auto& shard : shards) merged.Merge(shard);

    EXPECT_EQ(merged.Count(), whole.Count());
    EXPECT_EQ(merged.Min(), whole.Min());
    EXPECT_EQ(merged.Max(), whole.Max());
    EXPECT_EQ(merged.Mean(), whole.Mean());  // bit-exact: same additions
    for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
      EXPECT_EQ(merged.Percentile(p), whole.Percentile(p))
          << "p" << p << " round " << round;
    }
  }
}

TEST(HistogramProperty, MergeWithEmptySidesIsIdentityInBothDirections) {
  sim::Rng rng(77);
  const auto values = RandomDurations(rng, 200);
  metrics::Histogram filled;
  for (const auto v : values) filled.Record(v);
  const auto count = filled.Count();
  const auto min = filled.Min();
  const auto max = filled.Max();
  const auto p99 = filled.Percentile(99);

  // Empty RHS: strict no-op (must not fold the empty side's zeroed extrema).
  metrics::Histogram empty;
  filled.Merge(empty);
  EXPECT_EQ(filled.Count(), count);
  EXPECT_EQ(filled.Min(), min);
  EXPECT_EQ(filled.Max(), max);
  EXPECT_EQ(filled.Percentile(99), p99);

  // Empty LHS: adopts the other wholesale, including a nonzero Min.
  metrics::Histogram adopted;
  adopted.Merge(filled);
  EXPECT_EQ(adopted.Count(), count);
  EXPECT_EQ(adopted.Min(), min);
  EXPECT_EQ(adopted.Max(), max);

  // Empty-with-empty stays empty.
  metrics::Histogram a, b;
  a.Merge(b);
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_EQ(a.Min(), 0);
  EXPECT_EQ(a.Max(), 0);
}

TEST(HistogramProperty, PercentileIsMonotonicInPAndBounded) {
  sim::Rng rng(1313);
  for (int round = 0; round < 25; ++round) {
    metrics::Histogram hist;
    for (const auto v : RandomDurations(rng, 300)) hist.Record(v);
    sim::SimDuration prev = hist.Percentile(0);
    for (double p = 0.0; p <= 100.0; p += 0.5) {
      const sim::SimDuration q = hist.Percentile(p);
      EXPECT_GE(q, prev) << "p=" << p << " round " << round;
      EXPECT_GE(q, hist.Min());
      EXPECT_LE(q, hist.Max());
      prev = q;
    }
    EXPECT_EQ(hist.Percentile(0), hist.Min());
    EXPECT_EQ(hist.Percentile(100), hist.Max());
  }
}

// ------------------------------------------------------------- scheduler

TEST(SchedulerProperty, RandomScheduleExecutesInNondecreasingTimeOrder) {
  sim::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    sim::Scheduler sched;
    std::vector<sim::SimTime> fired;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 500; ++i) {
      const auto when = static_cast<sim::SimTime>(rng.NextBelow(10000));
      ids.push_back(sched.ScheduleAt(
          when, [&fired, &sched] { fired.push_back(sched.Now()); }));
    }
    // Cancel a random quarter.
    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (rng.NextBelow(4) == 0) {
        sched.Cancel(ids[i]);
        ++cancelled;
      }
    }
    sched.Run();
    EXPECT_EQ(fired.size(), 500 - cancelled);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  }
}

TEST(SchedulerProperty, InterleavedRunUntilNeverGoesBackwards) {
  sim::Rng rng(123);
  sim::Scheduler sched;
  sim::SimTime last_observed = 0;
  bool monotonic = true;
  for (int i = 0; i < 300; ++i) {
    sched.ScheduleAt(static_cast<sim::SimTime>(rng.NextBelow(5000)), [&] {
      if (sched.Now() < last_observed) monotonic = false;
      last_observed = sched.Now();
      // Events may reschedule into the future.
      if (sched.Now() < 4000) {
        sched.ScheduleAfter(static_cast<sim::SimDuration>(rng.NextBelow(100)),
                            [&] {
                              if (sched.Now() < last_observed) {
                                monotonic = false;
                              }
                              last_observed = sched.Now();
                            });
      }
    });
  }
  for (sim::SimTime t = 0; t <= 6000; t += 500) sched.RunUntil(t);
  sched.Run();
  EXPECT_TRUE(monotonic);
}

// ---------------------------------------------------------------- ledger

using StateRef = std::map<std::pair<std::string, std::string>,
                          ledger::VersionedValue>;

/// Expects `db` to hold exactly `ref`: every key of both namespaces
/// (present or not), full ordered scans and the key count.
void ExpectStateMatches(ledger::StateView db, const StateRef& ref,
                        const std::vector<std::string>& spaces,
                        std::size_t keys_per_space) {
  ASSERT_EQ(db.KeyCount(), ref.size());
  for (const std::string& ns : spaces) {
    std::vector<std::pair<std::string, ledger::VersionedValue>> expect;
    for (const auto& [k, vv] : ref) {
      if (k.first == ns) expect.emplace_back(k.second, vv);
    }
    const auto scan = db.GetRange(ns, "", "");
    ASSERT_EQ(scan.size(), expect.size()) << ns;
    for (std::size_t i = 0; i < scan.size(); ++i) {
      EXPECT_EQ(scan[i].first, expect[i].first);
      EXPECT_EQ(scan[i].second.value, expect[i].second.value);
      EXPECT_EQ(scan[i].second.version, expect[i].second.version);
    }
    for (std::size_t k = 0; k < keys_per_space; ++k) {
      const std::string key = "k" + std::to_string(k);
      const auto it = ref.find({ns, key});
      const auto got = db.GetVersion(ns, key);
      ASSERT_EQ(got.has_value(), it != ref.end()) << ns << "/" << key;
      if (got) {
        EXPECT_EQ(*got, it->second.version);
      }
    }
  }
}

TEST(LedgerProperty, StateDbMatchesAnOrderedMapReference) {
  // A small key space, so deletes and re-inserts keep landing on entries
  // that an earlier delete moved; a copy taken midway must not see later
  // writes to the original.
  const std::vector<std::string> spaces = {"cc", "other"};
  constexpr std::size_t kKeys = 48;
  sim::Rng rng(20260);
  ledger::StateDb db;
  StateRef ref;
  std::optional<ledger::StateDb> copy;
  StateRef copy_ref;
  auto key = [&] { return "k" + std::to_string(rng.NextBelow(kKeys)); };
  for (std::uint64_t op = 0; op < 50000; ++op) {
    const std::string& ns = spaces[rng.NextBelow(spaces.size())];
    const std::uint64_t kind = rng.NextBelow(10);
    if (kind < 4) {  // put: a fresh key or an overwrite
      const std::string k = key();
      const proto::Bytes value = proto::ToBytes(std::to_string(op));
      const proto::KeyVersion version{op, static_cast<std::uint32_t>(kind)};
      db.Put(ns, k, value, version);
      ref[{ns, k}] = ledger::VersionedValue{value, version};
    } else if (kind < 7) {
      const std::string k = key();
      db.Delete(ns, k);
      ref.erase({ns, k});
    } else if (kind < 9) {
      const std::string k = key();
      const auto got = db.Get(ns, k);
      const auto it = ref.find({ns, k});
      ASSERT_EQ(got.has_value(), it != ref.end()) << "op " << op;
      if (got) {
        EXPECT_EQ(got->value, it->second.value);
        EXPECT_EQ(got->version, it->second.version);
      }
    } else {  // range [a, b), b possibly open
      std::string lo = key(), hi = rng.NextBool(0.2) ? "" : key();
      const auto got = db.GetRange(ns, lo, hi);
      std::vector<std::string> expect;
      for (auto it = ref.lower_bound({ns, lo});
           it != ref.end() && it->first.first == ns &&
           (hi.empty() || it->first.second < hi);
           ++it) {
        expect.push_back(it->first.second);
      }
      ASSERT_EQ(got.size(), expect.size()) << "op " << op;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, expect[i]);
        EXPECT_EQ(got[i].second.version, ref.at({ns, expect[i]}).version);
      }
      ASSERT_EQ(db.KeyCount(), ref.size()) << "op " << op;
    }
    if (op == 25000) {
      copy = db;
      copy_ref = ref;
    }
  }
  ExpectStateMatches(db, ref, spaces, kKeys);
  ASSERT_TRUE(copy.has_value());
  ExpectStateMatches(*copy, copy_ref, spaces, kKeys);
}

TEST(LedgerProperty, ReadsAsOfAHeightMatchASnapshotPerHeight) {
  // One store, written block by block at its head, read by cursors that
  // lag behind it and collected to the slowest of them after every block:
  // every read at a height between the slowest cursor and the head must
  // match the full snapshot the reference kept for that height, however
  // the cursors advance and whatever the collector drops.
  const std::vector<std::string> spaces = {"cc", "other"};
  constexpr std::size_t kKeys = 24;
  constexpr std::uint64_t kBlocks = 400;
  sim::Rng rng(20261);
  auto key = [&] { return "k" + std::to_string(rng.NextBelow(kKeys)); };

  ledger::StateDb db;
  std::vector<StateRef> ref(2);  // ref[h]: the state at height h
  for (std::size_t k = 0; k < kKeys; k += 3) {
    const std::string seed = "k" + std::to_string(k);
    db.Put("cc", seed, proto::ToBytes("seed"), proto::KeyVersion{0, 0});
    ref[1][{"cc", seed}] =
        ledger::VersionedValue{proto::ToBytes("seed"), proto::KeyVersion{0, 0}};
  }
  db.SetHeight(1);
  std::vector<std::uint64_t> cursor(4, 1);
  std::vector<bool> attached(cursor.size(), true);
  auto lowest = [&] {
    std::uint64_t low = db.Height();
    for (std::size_t r = 0; r < cursor.size(); ++r) {
      if (attached[r]) low = std::min(low, cursor[r]);
    }
    return low;
  };
  db.Collect(1);

  auto check_reads = [&](std::uint64_t low) {
    for (int i = 0; i < 6; ++i) {
      const std::uint64_t h = low + rng.NextBelow(db.Height() - low + 1);
      const StateRef& at = ref[h];
      const std::string& ns = spaces[rng.NextBelow(spaces.size())];
      const std::string k = key();
      const auto got = db.Get(ns, k, h);
      const auto it = at.find({ns, k});
      ASSERT_EQ(got.has_value(), it != at.end()) << ns << "/" << k << "@" << h;
      if (got) {
        EXPECT_EQ(got->value, it->second.value);
        EXPECT_EQ(got->version, it->second.version);
      }
      std::string lo = key(), hi = rng.NextBool(0.3) ? "" : key();
      std::vector<std::pair<std::string, proto::KeyVersion>> expect;
      for (auto e = at.lower_bound({ns, lo});
           e != at.end() && e->first.first == ns &&
           (hi.empty() || e->first.second < hi);
           ++e) {
        expect.emplace_back(e->first.second, e->second.version);
      }
      std::vector<std::pair<std::string, proto::KeyVersion>> scanned;
      db.ForEachInRange(ns, lo, hi, h,
                        [&](std::string_view k2, const ledger::VersionedValue& vv) {
                          scanned.emplace_back(std::string(k2), vv.version);
                        });
      EXPECT_EQ(scanned, expect) << ns << " [" << lo << "," << hi << ")@" << h;
    }
    const std::uint64_t h = low + rng.NextBelow(db.Height() - low + 1);
    ExpectStateMatches(ledger::StateView(db, h), ref[h], spaces, kKeys);
  };

  for (std::uint64_t b = 1; b <= kBlocks; ++b) {
    StateRef next = ref[b];
    const std::uint64_t txs = 1 + rng.NextBelow(4);
    for (std::uint32_t tx = 0; tx < txs; ++tx) {
      const proto::KeyVersion version{b, tx};
      proto::TxReadWriteSet rwset;
      for (const std::string& ns : spaces) {
        proto::NsReadWriteSet ns_rw;
        ns_rw.ns = ns;
        for (std::uint64_t w = rng.NextBelow(3); w > 0; --w) {
          const std::string k = key();
          const bool del = rng.NextBool(0.3);
          const proto::Bytes value = proto::ToBytes(std::to_string(b * 10 + w));
          ns_rw.writes.push_back(proto::KVWrite{k, del ? proto::Bytes{} : value,
                                                del});
          if (del) {
            next.erase({ns, k});
          } else {
            next[{ns, k}] = ledger::VersionedValue{value, version};
          }
        }
        rwset.ns_rwsets.push_back(std::move(ns_rw));
      }
      db.ApplyRwSet(rwset, version);
    }
    db.SetHeight(b + 1);
    ref.push_back(std::move(next));

    // Cursors move forward at random, never past the head; one detaches
    // midway and comes back at the head.
    for (std::size_t r = 0; r < cursor.size(); ++r) {
      if (attached[r] && rng.NextBool(0.4)) {
        cursor[r] += rng.NextBelow(db.Height() - cursor[r] + 1);
      }
    }
    if (b == kBlocks / 2) attached[0] = false;
    if (b == kBlocks * 3 / 4) {
      cursor[0] = db.Height();
      attached[0] = true;
    }
    const std::uint64_t low = lowest();
    db.Collect(low);
    check_reads(low);
    if (HasFatalFailure()) return;
  }

  // A snapshot at a lagging height is that height's state on its own.
  const std::uint64_t low = lowest();
  const ledger::StateDb snapshot = db.Snapshot(low);
  EXPECT_EQ(snapshot.Height(), low);
  EXPECT_EQ(snapshot.RetainedVersions(), 0u);
  ExpectStateMatches(snapshot, ref[low], spaces, kKeys);

  // With every reader gone, nothing is retained and the head is exact.
  EXPECT_GT(db.RetainedVersions(), 0u);
  db.Collect(ledger::StateDb::kHead);
  EXPECT_EQ(db.RetainedVersions(), 0u);
  ExpectStateMatches(db, ref.back(), spaces, kKeys);
}

TEST(LedgerProperty, WritesWithNoReaderBehindRetainNothing) {
  // A reader at the head does not hold versions back: the store behaves as
  // a single-reader one.
  ledger::StateDb db;
  db.SetHeight(1);
  for (std::uint64_t b = 1; b <= 50; ++b) {
    db.Collect(b + 1);
    db.Put("cc", "k", proto::ToBytes(std::to_string(b)), {b, 0});
    db.Delete("cc", "gone", {b, 1});
    db.Put("cc", "gone", proto::ToBytes("x"), {b, 2});
    db.SetHeight(b + 1);
    EXPECT_EQ(db.RetainedVersions(), 0u);
  }
  EXPECT_EQ(db.KeyCount(), 2u);
}

proto::BlockPtr BlockOfIds(std::uint64_t number,
                           const std::vector<std::string>& ids) {
  std::vector<proto::TransactionEnvelope> txs(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) txs[i].tx_id = ids[i];
  return std::make_shared<proto::Block>(
      proto::Block::Make(number, nullptr, std::move(txs)));
}

TEST(LedgerProperty, BlockStoreFindsTheNewestResidentOccurrence) {
  // Ids drawn from a small pool repeat inside blocks and across them; the
  // reference scans the resident blocks newest first.
  constexpr std::uint64_t kPool = 24;
  sim::Rng rng(77);
  for (const std::uint64_t keep : {0, 1, 2, 3, 7}) {
    ledger::BlockStore store;
    store.SetRetention(keep);
    std::deque<std::vector<std::string>> resident;  // oldest first
    std::uint64_t first = 0;
    for (std::uint64_t number = 0; number < 300; ++number) {
      std::vector<std::string> ids(rng.NextBelow(7));
      for (auto& id : ids) id = "tx-" + std::to_string(rng.NextBelow(kPool));
      store.Append(BlockOfIds(number, ids));
      resident.push_back(ids);
      if (keep != 0 && resident.size() > keep) {
        resident.pop_front();
        ++first;
      }
      ASSERT_EQ(store.FirstBlockNumber(), first);
      for (std::uint64_t p = 0; p < kPool; ++p) {
        const std::string id = "tx-" + std::to_string(p);
        std::optional<ledger::TxLocation> expect;
        for (std::size_t b = resident.size(); b-- > 0 && !expect;) {
          for (std::size_t i = resident[b].size(); i-- > 0;) {
            if (resident[b][i] == id) {
              expect = ledger::TxLocation{first + b,
                                          static_cast<std::uint32_t>(i)};
              break;
            }
          }
        }
        const auto got = store.FindTransaction(id);
        ASSERT_EQ(store.HasTransaction(id), expect.has_value())
            << "keep " << keep << " block " << number << " " << id;
        ASSERT_EQ(got.has_value(), expect.has_value());
        if (got) {
          EXPECT_EQ(got->block_num, expect->block_num);
          EXPECT_EQ(got->tx_index, expect->tx_index);
        }
      }
    }
  }
}

// Views of one shared block log answer every query exactly as a private
// store that was handed the same blocks and codes. As a committer does,
// each view leads a height (appends at the log's head), follows it (the
// log holds the block and codes it would append), or diverges (another
// block or other codes: it Unshares, since appending below the head is
// refused, and continues privately). Views also join late and leave; the
// ids repeat, so resubmitted ids sit at several heights.
TEST(LedgerProperty, BlockStoreViewsAnswerAsPrivateStores) {
  constexpr std::uint64_t kPool = 16;
  constexpr std::size_t kMaxViews = 5;
  const std::uint64_t kKeeps[] = {0, 1, 2, 3, 7};
  sim::Rng rng(2027);
  auto random_ids = [&] {
    std::vector<std::string> ids(rng.NextBelow(5));
    for (auto& id : ids) id = "tx-" + std::to_string(rng.NextBelow(kPool));
    return ids;
  };
  auto random_codes = [&](std::size_t n) {
    std::vector<proto::ValidationCode> codes(n);
    for (auto& c : codes) {
      c = rng.NextBelow(4) == 0 ? proto::ValidationCode::kMvccReadConflict
                                : proto::ValidationCode::kValid;
    }
    return codes;
  };

  for (int trial = 0; trial < 20; ++trial) {
    auto log = std::make_shared<ledger::BlockLog>();
    // The channel's canonical blocks and codes, extended by whichever view
    // first reaches a height, and what the shared log holds at each height.
    std::vector<proto::BlockPtr> canon;
    std::vector<std::vector<proto::ValidationCode>> canon_codes;
    std::vector<proto::BlockPtr> logged;
    std::vector<std::vector<proto::ValidationCode>> logged_codes;
    struct View {
      std::unique_ptr<ledger::BlockStore> store;
      std::unique_ptr<ledger::BlockStore> reference;
      bool on_log = true;  // a view of the shared log, not forked
    };
    std::vector<View> views;
    auto attach = [&] {
      View v{std::make_unique<ledger::BlockStore>(log),
             std::make_unique<ledger::BlockStore>()};
      const std::uint64_t keep = kKeeps[rng.NextBelow(std::size(kKeeps))];
      v.store->SetRetention(keep);
      v.reference->SetRetention(keep);
      views.push_back(std::move(v));
    };
    attach();
    attach();

    for (int step = 0; step < 400; ++step) {
      const std::uint64_t action = rng.NextBelow(100);
      if (action < 4 && views.size() < kMaxViews) {
        attach();
      } else if (action < 6 && views.size() > 1) {
        views.erase(views.begin() +
                    static_cast<std::ptrdiff_t>(rng.NextBelow(views.size())));
      } else if (action < 8) {
        View& v = views[rng.NextBelow(views.size())];
        // A view alone on its log stays where it is.
        if (v.store->Shared()) v.on_log = false;
        v.store->Unshare();
      } else {
        View& v = views[rng.NextBelow(views.size())];
        const std::uint64_t h = v.store->Height();
        if (h == canon.size()) {
          canon.push_back(BlockOfIds(h, random_ids()));
          canon_codes.push_back(random_codes(canon.back()->TxCount()));
        }
        proto::BlockPtr block = canon[h];
        std::vector<proto::ValidationCode> codes = canon_codes[h];
        if (action < 11) {
          block = BlockOfIds(h, random_ids());  // an equivocated block
          codes = random_codes(block->TxCount());
        } else if (action < 13 && !codes.empty()) {
          codes[0] = proto::ValidationCode::kDuplicateTxId;  // other codes
        }
        const std::uint64_t log_first = log->Height() - log->ResidentBlocks();
        if (v.on_log && h < logged.size() && h >= log_first &&
            logged[h] == block && logged_codes[h] == codes) {
          ASSERT_TRUE(v.store->Follow());
        } else {
          if (v.on_log && h < logged.size()) {
            // Diverging: a view below the log's head may not append there,
            // so it Unshares first.
            if (rng.NextBelow(2) == 0) {
              EXPECT_THROW(v.store->Append(block, codes), std::logic_error);
            }
            v.store->Unshare();
            v.on_log = false;
          }
          if (v.on_log) {
            logged.push_back(block);
            logged_codes.push_back(codes);
          }
          v.store->Append(block, codes);
        }
        v.reference->Append(block, codes);
      }

      for (std::size_t i = 0; i < views.size(); ++i) {
        const ledger::BlockStore& got = *views[i].store;
        const ledger::BlockStore& want = *views[i].reference;
        const std::string where =
            "trial " + std::to_string(trial) + " step " +
            std::to_string(step) + " view " + std::to_string(i);
        ASSERT_EQ(got.Height(), want.Height()) << where;
        ASSERT_EQ(got.FirstBlockNumber(), want.FirstBlockNumber()) << where;
        ASSERT_EQ(got.ResidentBlocks(), want.ResidentBlocks()) << where;
        ASSERT_EQ(got.TxCount(), want.TxCount()) << where;
        ASSERT_EQ(got.StoredBytes(), want.StoredBytes()) << where;
        ASSERT_EQ(got.LastBlock(), want.LastBlock()) << where;
        for (std::uint64_t n = 0; n <= want.Height(); ++n) {
          ASSERT_EQ(got.GetBlock(n), want.GetBlock(n)) << where << " #" << n;
          ASSERT_EQ(got.CodesFor(n), want.CodesFor(n)) << where << " #" << n;
        }
        for (std::uint64_t p = 0; p < kPool; ++p) {
          const std::string id = "tx-" + std::to_string(p);
          ASSERT_EQ(got.HasTransaction(id), want.HasTransaction(id))
              << where << " " << id;
          const auto a = got.FindTransaction(id);
          const auto b = want.FindTransaction(id);
          ASSERT_EQ(a.has_value(), b.has_value()) << where << " " << id;
          if (a) {
            EXPECT_EQ(a->block_num, b->block_num) << where << " " << id;
            EXPECT_EQ(a->tx_index, b->tx_index) << where << " " << id;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fabricsim
