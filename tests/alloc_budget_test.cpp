// Heap-allocation budgets of the per-transaction hot paths.
//
// This executable replaces the global operator new/delete with counting
// versions, so each test can assert how many allocations a code path makes:
// none for policy evaluation, scheduling and dispatching an event, a CPU
// job, or the digest and wire size of a message; exactly one for
// Serialize(); and, end to end, at most a fixed number per terminal
// transaction for a short run of two perfbench workload configurations.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fabric/experiment.h"
#include "policy/evaluator.h"
#include "policy/policy.h"
#include "proto/encode.h"
#include "proto/proposal.h"
#include "sim/cpu.h"
#include "sim/scheduler.h"

namespace {

std::uint64_t g_allocations = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fabricsim {
namespace {

// Allocations made while `fn` runs.
template <typename F>
std::uint64_t AllocationsIn(F&& fn) {
  const std::uint64_t before = g_allocations;
  fn();
  return g_allocations - before;
}

crypto::Principal OrgPeer(int org) {
  return {"Org" + std::to_string(org) + "MSP", crypto::Role::kPeer};
}

std::vector<crypto::Principal> Orgs(int n) {
  std::vector<crypto::Principal> out;
  for (int i = 1; i <= n; ++i) out.push_back(OrgPeer(i));
  return out;
}

TEST(AllocBudget, PolicyOrOverTenOrgsWithTheMatchLastAllocatesNothing) {
  const auto policy = policy::EndorsementPolicy::AnyOf(Orgs(10));
  const std::vector<crypto::Principal> signers = {OrgPeer(10)};
  bool satisfied = false;
  std::optional<std::size_t> prefix;
  EXPECT_EQ(AllocationsIn([&] {
              satisfied = policy::Satisfied(policy, signers);
              prefix = policy::SatisfiedPrefix(policy, signers);
            }),
            0u);
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(prefix, std::optional<std::size_t>(1));
}

TEST(AllocBudget, PolicyAnd5AllocatesNothing) {
  const auto policy = policy::EndorsementPolicy::AllOf(Orgs(5));
  const std::vector<crypto::Principal> signers = Orgs(5);
  bool satisfied = false;
  std::optional<std::size_t> prefix;
  EXPECT_EQ(AllocationsIn([&] {
              satisfied = policy::Satisfied(policy, signers);
              prefix = policy::SatisfiedPrefix(policy, signers);
            }),
            0u);
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(prefix, std::optional<std::size_t>(5));
}

// A 48-byte capture: Committer::StartVscc's VSCC job has this size.
struct Capture48 {
  std::uint64_t* sink;
  std::uint64_t a, b, c, d, e;
  void operator()() const { *sink += a + b + c + d + e; }
};
static_assert(sizeof(Capture48) == 48);
static_assert(sim::InlineCallback::kStoredInline<Capture48>);

TEST(AllocBudget, ScheduleAndDispatchOf48ByteCaptureAllocatesNothing) {
  sim::Scheduler sched;
  std::uint64_t sum = 0;
  // The first event grows the slab, the free list and the heap.
  sched.ScheduleAfter(1, Capture48{&sum, 1, 1, 1, 1, 1});
  sched.Run();
  EXPECT_EQ(AllocationsIn([&] {
              sched.ScheduleAfter(1, Capture48{&sum, 1, 2, 3, 4, 5});
              sched.Run();
            }),
            0u);
  EXPECT_EQ(sum, 5u + 15u);
}

TEST(AllocBudget, CpuSubmitThroughCompletionAllocatesNothing) {
  sim::Scheduler sched;
  sim::Cpu cpu(sched, 2);
  // Utilization history grows one mark per job start and end; the streaming
  // runs that care about memory switch it off, as here.
  cpu.SetBoundedMarks(true);
  std::uint64_t sum = 0;
  cpu.Submit(10, Capture48{&sum, 1, 1, 1, 1, 1});
  sched.Run();
  EXPECT_EQ(AllocationsIn([&] {
              cpu.Submit(10, Capture48{&sum, 1, 2, 3, 4, 5});
              sched.Run();
            }),
            0u);
  EXPECT_EQ(sum, 5u + 15u);
  EXPECT_EQ(cpu.CompletedJobs(), 2u);
}

TEST(AllocBudget, CaptureAboveTheInlineLimitUsesOneAllocation) {
  struct Capture56 {
    std::uint64_t* sink;
    std::uint64_t a, b, c, d, e, f;
    void operator()() const { *sink += a + b + c + d + e + f; }
  };
  static_assert(!sim::InlineCallback::kStoredInline<Capture56>);
  sim::Scheduler sched;
  std::uint64_t sum = 0;
  sched.ScheduleAfter(1, Capture56{&sum, 1, 1, 1, 1, 1, 1});
  sched.Run();
  EXPECT_EQ(AllocationsIn([&] {
              sched.ScheduleAfter(1, Capture56{&sum, 1, 1, 1, 1, 1, 1});
              sched.Run();
            }),
            1u);
  EXPECT_EQ(sum, 12u);
}

proto::ProposalResponse SampleResponse() {
  proto::ProposalResponse r;
  r.tx_id = std::string(64, 'a');
  r.payload.proposal_hash = crypto::HashStr(r.tx_id);
  proto::RwSetBuilder rw("kvwrite");
  rw.AddRead("some-key-longer-than-sso", proto::KeyVersion{3, 1});
  rw.AddWrite("some-key-longer-than-sso", proto::Bytes(100, 'x'));
  r.payload.rwset = std::move(rw).Build();
  r.payload.chaincode_result = proto::ToBytes("ok");
  r.endorsement.endorser_cert = proto::Bytes(300, 'c');
  r.endorsement.signature.bytes.fill(7);
  return r;
}

TEST(AllocBudget, ProposalResponseDigestAndWireSizeAllocateNothing) {
  const proto::ProposalResponse r = SampleResponse();
  crypto::Digest digest{};
  std::size_t size = 0;
  EXPECT_EQ(AllocationsIn([&] {
              digest = proto::EncodedDigest(r);
              size = r.WireSize();
            }),
            0u);
  const proto::Bytes wire = r.Serialize();
  EXPECT_EQ(digest, crypto::Hash(wire));
  EXPECT_EQ(size, wire.size());
}

TEST(AllocBudget, SerializeAllocatesOnce) {
  const proto::ProposalResponse r = SampleResponse();
  proto::Bytes wire;
  EXPECT_EQ(AllocationsIn([&] { wire = r.Serialize(); }), 1u);
  EXPECT_EQ(wire.size(), wire.capacity());
}

// Allocations per terminal transaction of an 8 s run, seed 42, of the
// perfbench workload configs or-raft-fresh and and5-kafka.
double AllocationsPerTx(fabric::OrderingType ordering, int and_x,
                        double rate_tps) {
  fabric::ExperimentConfig c = fabric::StandardConfig(ordering, and_x, rate_tps);
  c.workload.duration = sim::FromSeconds(8);
  c.network.seed = 42;
  fabric::ExperimentResult r;
  const std::uint64_t allocations =
      AllocationsIn([&] { r = fabric::RunExperiment(c); });
  const std::uint64_t terminal = r.client_committed_valid +
                                 r.client_committed_invalid +
                                 r.client_rejected + r.endorse_failures;
  EXPECT_GT(terminal, 0u);
  const double per_tx =
      static_cast<double>(allocations) / static_cast<double>(terminal);
  std::printf("allocations per terminal tx: %.1f\n", per_tx);
  return per_tx;
}

// Budgets: the count measured when they were set (49.2 and 112.6, with the
// peers of a channel sharing one world state, seeded once, and one block
// log, and commit events sharing the committed block), plus 10%.
constexpr double kOrRaftFreshBudget = 54.1;
constexpr double kAnd5KafkaBudget = 123.9;

TEST(AllocBudget, OrRaftFreshRunStaysWithinBudget) {
  EXPECT_LE(AllocationsPerTx(fabric::OrderingType::kRaft, 0, 300),
            kOrRaftFreshBudget);
}

TEST(AllocBudget, And5KafkaRunStaysWithinBudget) {
  EXPECT_LE(AllocationsPerTx(fabric::OrderingType::kKafka, 5, 180),
            kAnd5KafkaBudget);
}

}  // namespace
}  // namespace fabricsim
