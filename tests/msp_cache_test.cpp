// Cache-poisoning negative tests for the MSP identity-verification cache —
// the --opt-msp-cache knob's security discipline.
//
// The cache memoizes full serialized certificate bytes -> verified identity.
// The security property under test: a forged certificate can never produce —
// or hit — a cached valid identity, because the key is the untruncated
// serialization and the cached verdict binds identity + cert chain
// (MspRegistry::ValidateCertificate). A hit here changes the committer's
// SIMULATED cost, so the stats the bench JSON exports are also pinned.
#include "crypto/msp_cache.h"

#include <gtest/gtest.h>

#include <string>

#include "crypto/ca.h"
#include "crypto/identity.h"
#include "proto/bytes.h"

namespace fabricsim::crypto {
namespace {

class MspCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MspIdentityCache::ResetGlobalStats();
    org_ = &msps_.AddOrganization("Org1MSP");
    honest_ = org_->Enroll("peer0", Role::kPeer).Cert();
  }

  MspRegistry msps_;
  const CertificateAuthority* org_ = nullptr;
  Certificate honest_;
};

TEST_F(MspCacheTest, ForgedCertificateIsNeverCachedAsValid) {
  MspIdentityCache cache(msps_);
  const proto::Bytes honest_bytes = honest_.Serialize();
  ASSERT_NE(cache.Lookup(honest_bytes).cert, nullptr);

  // A cert claiming a different subject/role under the honest issuer
  // signature must verify invalid — and stay invalid on the cached path.
  Certificate forged = honest_;
  forged.subject = "mallory";
  forged.role = Role::kAdmin;
  const proto::Bytes forged_bytes = forged.Serialize();
  EXPECT_EQ(cache.Lookup(forged_bytes).cert, nullptr);
  const auto again = cache.Lookup(forged_bytes);
  EXPECT_EQ(again.cert, nullptr);
  EXPECT_TRUE(again.hit);  // cached as invalid, never upgraded

  // Bit flips across the serialization: every variant is invalid (either
  // fails to deserialize or fails chain validation), cached or not.
  for (std::size_t i = 0; i < honest_bytes.size(); i += 7) {
    proto::Bytes tampered = honest_bytes;
    tampered[i] ^= 0x01;
    EXPECT_EQ(cache.Lookup(tampered).cert, nullptr) << "byte " << i;
  }
}

TEST_F(MspCacheTest, KeyBindsTheFullCertificateBytes) {
  MspIdentityCache cache(msps_);
  const proto::Bytes honest_bytes = honest_.Serialize();
  ASSERT_NE(cache.Lookup(honest_bytes).cert, nullptr);
  ASSERT_EQ(cache.Size(), 1u);

  // Any byte difference must MISS — an attacker who controls cert bytes
  // cannot alias onto the honestly cached identity.
  proto::Bytes tampered = honest_bytes;
  tampered.back() ^= 0x80;
  const auto r = cache.Lookup(tampered);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.cert, nullptr);
  EXPECT_EQ(cache.Hits(), 0u);
  EXPECT_EQ(cache.Misses(), 2u);
}

TEST_F(MspCacheTest, UnknownMspCachedInvalid) {
  // A syntactically valid certificate from a CA the registry does not trust
  // verifies invalid and is memoized as invalid.
  MspRegistry other;
  const Certificate foreign =
      other.AddOrganization("EvilMSP").Enroll("peer0", Role::kPeer).Cert();
  MspIdentityCache cache(msps_);
  EXPECT_EQ(cache.Lookup(foreign.Serialize()).cert, nullptr);
  const auto again = cache.Lookup(foreign.Serialize());
  EXPECT_EQ(again.cert, nullptr);
  EXPECT_TRUE(again.hit);
}

TEST_F(MspCacheTest, WholesaleClearRecomputesHonestly) {
  // Fill past the bound: the wholesale clear must count evictions, and a
  // forged certificate re-verified afterwards must still come back invalid
  // (a clear can drop entries, never flip them).
  MspIdentityCache cache(msps_);
  Certificate forged = honest_;
  forged.subject = "mallory";
  const proto::Bytes forged_bytes = forged.Serialize();
  ASSERT_EQ(cache.Lookup(forged_bytes).cert, nullptr);

  for (std::size_t i = 0; cache.Evictions() == 0; ++i) {
    ASSERT_LT(i, 2 * MspIdentityCache::kMaxEntries);
    const Certificate c =
        org_->Enroll("m" + std::to_string(i), Role::kClient).Cert();
    ASSERT_NE(cache.Lookup(c.Serialize()).cert, nullptr);
  }
  EXPECT_EQ(cache.Evictions(), MspIdentityCache::kMaxEntries);

  const auto after = cache.Lookup(forged_bytes);
  EXPECT_EQ(after.cert, nullptr);
  EXPECT_FALSE(after.hit);  // the clear dropped it; recomputed honestly
}

TEST_F(MspCacheTest, StatsFeedTheGlobalAggregates) {
  // Per-committer counters roll up into the process-wide aggregates the
  // bench JSON exports under host.msp_cache.
  MspIdentityCache a(msps_);
  MspIdentityCache b(msps_);
  const proto::Bytes bytes = honest_.Serialize();
  (void)a.Lookup(bytes);  // miss
  (void)a.Lookup(bytes);  // hit
  (void)b.Lookup(bytes);  // miss (caches are per committer)
  EXPECT_EQ(a.Hits(), 1u);
  EXPECT_EQ(a.Misses(), 1u);
  EXPECT_EQ(b.Hits(), 0u);
  EXPECT_EQ(b.Misses(), 1u);
  EXPECT_EQ(MspIdentityCache::GlobalHits(), 1u);
  EXPECT_EQ(MspIdentityCache::GlobalMisses(), 2u);
}

}  // namespace
}  // namespace fabricsim::crypto
