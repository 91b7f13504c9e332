#include <gtest/gtest.h>

#include "crypto/ca.h"
#include "crypto/merkle.h"
#include "proto/block.h"
#include "proto/encode.h"
#include "proto/proposal.h"
#include "proto/rwset.h"
#include "proto/transaction.h"

namespace fabricsim::proto {
namespace {

TEST(Writer, PrimitiveRoundTrip) {
  Writer w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFULL);
  w.I64(-42);
  w.Blob(ToBytes("blob"));
  w.Str("string");
  Reader r(w.Data());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(ToString(r.Blob()), "blob");
  EXPECT_EQ(r.Str(), "string");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Writer, FixedWidthIntegersAreLittleEndian) {
  Writer w;
  w.U32(0x04030201);
  w.U64(0x0C0B0A0908070605ULL);
  EXPECT_EQ(w.Data(), (Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
}

TEST(Reader, ThrowsOnTruncation) {
  Writer w;
  w.U64(7);
  Bytes data = w.Take();
  data.resize(4);
  Reader r(data);
  EXPECT_THROW(r.U64(), std::out_of_range);
}

TEST(Reader, ThrowsOnBogusBlobLength) {
  Writer w;
  w.U32(1000000);  // claims 1MB follows, but nothing does
  Reader r(w.Data());
  EXPECT_THROW(r.Blob(), std::out_of_range);
}

TEST(Hex, Encoding) {
  const Bytes raw = {0x00, 0xff, 0x10};
  EXPECT_EQ(ToHex(raw), "00ff10");
  EXPECT_EQ(ToHex({}), "");
}

TxReadWriteSet SampleRwSet() {
  RwSetBuilder b("mycc");
  b.AddRead("k1", KeyVersion{3, 1});
  b.AddRead("missing", std::nullopt);
  b.AddWrite("k1", ToBytes("v1"));
  b.AddDelete("k2");
  return std::move(b).Build();
}

TEST(RwSet, SerializeRoundTrip) {
  const TxReadWriteSet original = SampleRwSet();
  const auto parsed = TxReadWriteSet::Deserialize(original.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
}

TEST(RwSet, CountsReadsAndWrites) {
  const TxReadWriteSet s = SampleRwSet();
  EXPECT_EQ(s.ReadCount(), 2u);
  EXPECT_EQ(s.WriteCount(), 2u);
}

TEST(RwSetBuilder, DeduplicatesReads) {
  RwSetBuilder b("cc");
  b.AddRead("k", KeyVersion{1, 0});
  b.AddRead("k", KeyVersion{9, 9});  // ignored: already read
  const auto s = std::move(b).Build();
  ASSERT_EQ(s.ns_rwsets[0].reads.size(), 1u);
  EXPECT_EQ(s.ns_rwsets[0].reads[0].version, (KeyVersion{1, 0}));
}

TEST(RwSetBuilder, LastWriteWins) {
  RwSetBuilder b("cc");
  b.AddWrite("k", ToBytes("v1"));
  b.AddWrite("k", ToBytes("v2"));
  const auto s = std::move(b).Build();
  ASSERT_EQ(s.ns_rwsets[0].writes.size(), 1u);
  EXPECT_EQ(ToString(s.ns_rwsets[0].writes[0].value), "v2");
}

TEST(RwSetBuilder, DeleteOverridesWrite) {
  RwSetBuilder b("cc");
  b.AddWrite("k", ToBytes("v1"));
  b.AddDelete("k");
  const auto s = std::move(b).Build();
  ASSERT_EQ(s.ns_rwsets[0].writes.size(), 1u);
  EXPECT_TRUE(s.ns_rwsets[0].writes[0].is_delete);
}

TEST(RwSetBuilder, PendingWriteVisible) {
  RwSetBuilder b("cc");
  EXPECT_EQ(b.PendingWrite("k"), nullptr);
  b.AddWrite("k", ToBytes("v"));
  ASSERT_NE(b.PendingWrite("k"), nullptr);
  EXPECT_EQ(ToString(b.PendingWrite("k")->value), "v");
}

crypto::Identity TestClient() {
  static crypto::CertificateAuthority ca("ClientOrgMSP");
  return ca.Enroll("app0", crypto::Role::kClient);
}

Proposal SampleProposal() {
  Proposal p;
  p.channel_id = "mychannel";
  p.nonce = ToBytes("nonce-1");
  p.creator_cert = TestClient().Cert().Serialize();
  p.invocation.chaincode_id = "kvwrite";
  p.invocation.function = "write";
  p.invocation.args = {ToBytes("k"), ToBytes("v")};
  p.client_timestamp = 123456;
  p.tx_id = Proposal::ComputeTxId(p.nonce, p.creator_cert);
  return p;
}

TEST(Proposal, SerializeRoundTrip) {
  const Proposal p = SampleProposal();
  const auto parsed = Proposal::Deserialize(p.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tx_id, p.tx_id);
  EXPECT_EQ(parsed->channel_id, p.channel_id);
  EXPECT_EQ(parsed->invocation.function, "write");
  EXPECT_EQ(parsed->invocation.args.size(), 2u);
  EXPECT_EQ(parsed->client_timestamp, 123456);
}

TEST(Proposal, TxIdBindsNonceAndCreator) {
  const Proposal p = SampleProposal();
  EXPECT_EQ(p.tx_id, Proposal::ComputeTxId(p.nonce, p.creator_cert));
  EXPECT_NE(p.tx_id,
            Proposal::ComputeTxId(ToBytes("other-nonce"), p.creator_cert));
}

TEST(SignedProposal, RoundTripPreservesSignature) {
  SignedProposal sp;
  sp.proposal = SampleProposal();
  sp.client_signature = TestClient().Sign(sp.proposal.Serialize());
  const auto parsed = SignedProposal::Deserialize(sp.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->client_signature, sp.client_signature);
  EXPECT_EQ(parsed->proposal.tx_id, sp.proposal.tx_id);
}

TransactionEnvelope SampleEnvelope() {
  TransactionEnvelope env;
  env.channel_id = "mychannel";
  env.tx_id = "txid-1";
  env.creator_cert = TestClient().Cert().Serialize();
  env.rwset = SampleRwSet();
  env.chaincode_result = ToBytes("ok");
  env.chaincode_id = "kvwrite";
  Endorsement e;
  e.endorser_cert = TestClient().Cert().Serialize();
  e.signature = TestClient().Sign(env.EndorsedPayloadBytes());
  env.endorsements.push_back(e);
  env.client_timestamp = 77;
  env.client_signature = TestClient().Sign(env.SignedBody());
  return env;
}

TEST(Envelope, SerializeRoundTrip) {
  TransactionEnvelope env = SampleEnvelope();
  const auto parsed = TransactionEnvelope::Deserialize(env.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tx_id, env.tx_id);
  EXPECT_EQ(parsed->rwset, env.rwset);
  EXPECT_EQ(parsed->endorsements.size(), 1u);
  EXPECT_EQ(parsed->client_signature, env.client_signature);
}

TEST(Envelope, CopyResetsCachesHonestly) {
  TransactionEnvelope env = SampleEnvelope();
  const Bytes before = env.Serialize();  // populates the cache
  TransactionEnvelope copy = env;
  copy.tx_id = "txid-2";  // mutate the copy
  EXPECT_NE(copy.Serialize(), before);
  EXPECT_EQ(env.Serialize(), before);  // original unchanged
}

TEST(Envelope, InvalidateCachesReflectsInPlaceMutation) {
  TransactionEnvelope env = SampleEnvelope();
  const Bytes before = env.Serialize();
  env.tx_id = "txid-9";
  env.InvalidateCaches();
  EXPECT_NE(env.Serialize(), before);
}

TEST(Envelope, SignedBodyExcludesSignature) {
  TransactionEnvelope env = SampleEnvelope();
  const Bytes body = env.SignedBody();
  env.client_signature.bytes[0] ^= 1;
  env.InvalidateCaches();
  EXPECT_EQ(env.SignedBody(), body);       // body unaffected by signature
  EXPECT_NE(env.Serialize().size(), 0u);
}

TEST(SharedBytes, CopiesShareOneBufferAndCompareByContent) {
  const SharedBytes a = ToBytes("certificate");
  const SharedBytes b = a;
  EXPECT_EQ(a.data(), b.data());
  const SharedBytes c = ToBytes("certificate");  // same bytes, own buffer
  EXPECT_NE(a.data(), c.data());
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a == SharedBytes(ToBytes("certificatE")));
  EXPECT_EQ(ToString(BytesView(a)), "certificate");
  EXPECT_EQ(SharedBytes().size(), 0u);
  EXPECT_EQ(SharedBytes(), SharedBytes(Bytes{}));
}

TEST(SharedBytes, DeserializedCertificatesEqualTheOriginals) {
  const TransactionEnvelope env = SampleEnvelope();
  const Endorsement& e = env.endorsements.front();
  const auto parsed_e = Endorsement::Deserialize(e.Serialize());
  ASSERT_TRUE(parsed_e.has_value());
  EXPECT_NE(parsed_e->endorser_cert.data(), e.endorser_cert.data());
  EXPECT_EQ(*parsed_e, e);

  const auto parsed = TransactionEnvelope::Deserialize(env.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(parsed->creator_cert.data(), env.creator_cert.data());
  EXPECT_EQ(parsed->creator_cert, env.creator_cert);
  EXPECT_EQ(parsed->endorsements, env.endorsements);
  EXPECT_EQ(parsed->Serialize(), env.Serialize());
}

TEST(SharedBytes, IdentitySerializesItsCertificateOnce) {
  const crypto::Identity id = TestClient();
  EXPECT_EQ(id.SerializedCert().data(), id.SerializedCert().data());
  EXPECT_EQ(id.SerializedCert(), SharedBytes(id.Cert().Serialize()));
  const crypto::Identity copy = id;
  EXPECT_EQ(copy.SerializedCert().data(), id.SerializedCert().data());
}

/// The memoized size and digests equal what fresh bytes give.
void ExpectMemosMatchFreshBytes(const TransactionEnvelope& env) {
  const Bytes wire = env.Serialize();
  EXPECT_EQ(env.WireSize(), wire.size());
  EXPECT_EQ(env.LeafHash(), crypto::MerkleTree::HashLeaf(wire));
  EXPECT_EQ(env.SignedBodyDigest(), crypto::Hash(env.SignedBody()));
  EXPECT_EQ(env.EndorsedPayloadDigest(),
            crypto::Hash(env.EndorsedPayloadBytes()));
}

TEST(EnvelopeMemo, MatchesFreshAndRoundTrippedBytes) {
  const TransactionEnvelope env = SampleEnvelope();
  ExpectMemosMatchFreshBytes(env);
  const auto parsed = TransactionEnvelope::Deserialize(env.Serialize());
  ASSERT_TRUE(parsed.has_value());
  ExpectMemosMatchFreshBytes(*parsed);
  EXPECT_EQ(parsed->WireSize(), env.WireSize());
  EXPECT_EQ(parsed->LeafHash(), env.LeafHash());
  EXPECT_EQ(parsed->SignedBodyDigest(), env.SignedBodyDigest());
  EXPECT_EQ(parsed->EndorsedPayloadDigest(), env.EndorsedPayloadDigest());
}

TEST(EnvelopeMemo, SignRefillsTheMemoFromItsOwnBuild) {
  const TransactionEnvelope manual = SampleEnvelope();
  TransactionEnvelope env = manual;
  env.client_signature = crypto::Signature{};
  const crypto::Digest unsigned_leaf = env.LeafHash();  // warm, then sign
  env.Sign(TestClient());
  EXPECT_EQ(env.client_signature, manual.client_signature);
  EXPECT_NE(env.LeafHash(), unsigned_leaf);
  EXPECT_EQ(env.LeafHash(), manual.LeafHash());
  ExpectMemosMatchFreshBytes(env);
}

TEST(EnvelopeMemo, TamperedCopyRecomputesWhileSourceKeepsItsMemos) {
  EnvelopeList list{SampleEnvelope()};
  const EnvelopePtr source = list.Ptr(0);
  const std::size_t size = source->WireSize();
  const crypto::Digest leaf = source->LeafHash();
  const crypto::Digest body = source->SignedBodyDigest();
  const crypto::Digest endorsed = source->EndorsedPayloadDigest();

  TransactionEnvelope& tampered = list.Mutable(0);
  tampered.chaincode_result.push_back(0x5A);
  ExpectMemosMatchFreshBytes(tampered);
  EXPECT_NE(tampered.WireSize(), size);
  EXPECT_NE(tampered.LeafHash(), leaf);
  EXPECT_NE(tampered.SignedBodyDigest(), body);
  EXPECT_NE(tampered.EndorsedPayloadDigest(), endorsed);

  EXPECT_EQ(source->WireSize(), size);
  EXPECT_EQ(source->LeafHash(), leaf);
  EXPECT_EQ(source->SignedBodyDigest(), body);
  EXPECT_EQ(source->EndorsedPayloadDigest(), endorsed);
  ExpectMemosMatchFreshBytes(*source);
}

TEST(Block, MakeComputesDataHashAndChainsPrev) {
  std::vector<TransactionEnvelope> txs{SampleEnvelope()};
  const Block genesis = Block::Make(0, nullptr, txs);
  EXPECT_EQ(genesis.header.number, 0u);
  EXPECT_EQ(genesis.header.data_hash, Block::ComputeDataHash(txs));

  const crypto::Digest prev = genesis.header.Hash();
  const Block next = Block::Make(1, &prev, txs);
  EXPECT_EQ(next.header.previous_hash, prev);
}

TEST(Block, SerializeRoundTrip) {
  std::vector<TransactionEnvelope> txs{SampleEnvelope(), SampleEnvelope()};
  Block b = Block::Make(5, nullptr, txs);
  b.metadata.validation_codes = {ValidationCode::kValid,
                                 ValidationCode::kMvccReadConflict};
  const auto parsed = Block::Deserialize(b.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header, b.header);
  EXPECT_EQ(parsed->TxCount(), 2u);
  EXPECT_EQ(parsed->metadata.validation_codes[1],
            ValidationCode::kMvccReadConflict);
}

/// An AND5-sized envelope: five endorsements, six certificates.
TransactionEnvelope And5Envelope(int i) {
  static crypto::CertificateAuthority ca("PeerOrgMSP");
  TransactionEnvelope env;
  env.channel_id = "mychannel";
  env.tx_id = "and5-tx-" + std::to_string(i);
  env.creator_cert = TestClient().Cert().Serialize();
  env.rwset = SampleRwSet();
  env.chaincode_result = ToBytes("ok");
  env.chaincode_id = "kvwrite";
  for (int p = 0; p < 5; ++p) {
    const crypto::Identity peer =
        ca.Enroll("peer" + std::to_string(p), crypto::Role::kPeer);
    env.endorsements.push_back(
        Endorsement{peer.Cert().Serialize(),
                    peer.Sign(env.EndorsedPayloadBytes())});
  }
  env.client_timestamp = 1000 + i;
  env.client_signature = TestClient().Sign(env.SignedBody());
  return env;
}

/// The blocks the size and hash identities are pinned on: an empty block,
/// a genesis block (one unsigned config envelope) and a seven-transaction
/// AND5 block with filled metadata.
std::vector<Block> IdentityBlocks() {
  TransactionEnvelope config;
  config.channel_id = "mychannel";
  config.tx_id = "genesis:mychannel";
  config.chaincode_result = ToBytes("OR('Org1MSP.peer')");
  std::vector<TransactionEnvelope> and5;
  for (int i = 0; i < 7; ++i) and5.push_back(And5Envelope(i));

  std::vector<Block> out;
  out.push_back(Block::Make(3, nullptr, {}));
  out.push_back(Block::Make(0, nullptr, {config}));
  const crypto::Digest prev = out.back().header.Hash();
  Block full = Block::Make(1, &prev, std::move(and5));
  full.metadata.validation_codes.assign(7, ValidationCode::kValid);
  full.metadata.validation_codes[2] = ValidationCode::kMvccReadConflict;
  full.metadata.orderer_cert = TestClient().Cert().Serialize();
  full.metadata.orderer_signature = TestClient().Sign(full.header.Serialize());
  out.push_back(std::move(full));
  return out;
}

TEST(Block, WireSizeMatchesSerializedSize) {
  for (const Block& b : IdentityBlocks()) {
    EXPECT_EQ(b.WireSize(), b.Serialize().size()) << "block " << b.TxCount();
    for (const auto& tx : b.transactions) {
      EXPECT_EQ(tx.WireSize(), tx.Serialize().size()) << tx.tx_id;
    }
  }
}

TEST(Block, StreamedLeafHashMatchesSerializedLeaf) {
  for (const Block& b : IdentityBlocks()) {
    for (const auto& tx : b.transactions) {
      EXPECT_EQ(tx.LeafHash(), crypto::MerkleTree::HashLeaf(tx.Serialize()))
          << tx.tx_id;
    }
  }
}

TEST(Block, DataHashIsMerkleRootOfSerializedEnvelopes) {
  for (const Block& b : IdentityBlocks()) {
    std::vector<Bytes> leaves;
    for (const auto& tx : b.transactions) leaves.push_back(tx.Serialize());
    const crypto::Digest root = crypto::MerkleTree(leaves).Root();
    EXPECT_EQ(Block::ComputeDataHash(b.transactions), root);
    EXPECT_EQ(b.header.data_hash, root);
    EXPECT_EQ(b.DataHash(), root);
  }
}

TEST(Block, EnvelopeListIteratesSharedEnvelopesBothWays) {
  const Block b = IdentityBlocks().back();
  std::vector<std::string> forward, backward;
  for (const TransactionEnvelope& tx : b.transactions) {
    forward.push_back(tx.tx_id);
  }
  for (auto it = b.transactions.rbegin(); it != b.transactions.rend(); ++it) {
    backward.insert(backward.begin(), it->tx_id);
  }
  EXPECT_EQ(forward, backward);
  ASSERT_EQ(forward.size(), b.TxCount());
  for (std::size_t i = 0; i < b.TxCount(); ++i) {
    EXPECT_EQ(&b.transactions[i], b.transactions.Ptr(i).get());
    EXPECT_EQ(forward[i], "and5-tx-" + std::to_string(i));
  }
  EXPECT_EQ(&b.transactions.front(), b.transactions.Ptr(0).get());
}

TEST(Block, HeaderHashSensitiveToEveryField) {
  BlockHeader h;
  h.number = 1;
  const auto base = h.Hash();
  BlockHeader h2 = h;
  h2.number = 2;
  EXPECT_NE(h2.Hash(), base);
  BlockHeader h3 = h;
  h3.data_hash[0] ^= 1;
  EXPECT_NE(h3.Hash(), base);
  BlockHeader h4 = h;
  h4.previous_hash[0] ^= 1;
  EXPECT_NE(h4.Hash(), base);
}

// --- encoders: every sink agrees with the built bytes -----------------------

/// The streamed digest and the counted size equal those of Serialize().
template <typename Msg>
void ExpectEncodersAgree(const Msg& msg) {
  const Bytes wire = msg.Serialize();
  EXPECT_EQ(wire.size(), wire.capacity());  // built at its exact size
  EXPECT_EQ(EncodedDigest(msg), crypto::Hash(wire));
  EXPECT_EQ(EncodedSize(msg), wire.size());
}

ProposalResponse SampleResponse() {
  ProposalResponse r;
  r.tx_id = "txid-1";
  r.payload.proposal_hash = crypto::HashStr(r.tx_id);
  r.payload.rwset = SampleRwSet();
  r.payload.chaincode_result = ToBytes("ok");
  r.endorsement.endorser_cert = TestClient().Cert().Serialize();
  r.endorsement.signature = TestClient().Sign(r.payload.Serialize());
  return r;
}

TEST(Encoders, EveryWireStructStreamsItsSerializedBytes) {
  TxReadWriteSet rwset = SampleRwSet();
  rwset.ns_rwsets[0].range_reads.push_back(
      RangeRead{"a", "z", RangeRead::HashResults({{"b", KeyVersion{1, 2}}})});
  ExpectEncodersAgree(rwset);
  ExpectEncodersAgree(TxReadWriteSet{});
  const Proposal proposal = SampleProposal();
  ExpectEncodersAgree(proposal.invocation);
  ExpectEncodersAgree(proposal);
  SignedProposal sp;
  sp.proposal = proposal;
  sp.client_signature = TestClient().Sign(proposal.Serialize());
  ExpectEncodersAgree(sp);
  EXPECT_EQ(sp.WireSize(), sp.Serialize().size());
  const ProposalResponse response = SampleResponse();
  ExpectEncodersAgree(response.payload);
  ExpectEncodersAgree(response.endorsement);
  ExpectEncodersAgree(response);
  EXPECT_EQ(response.WireSize(), response.Serialize().size());
  const TransactionEnvelope env = SampleEnvelope();
  ExpectEncodersAgree(env);
  ExpectMemosMatchFreshBytes(env);
  Block block = Block::Make(3, nullptr, {SampleEnvelope(), SampleEnvelope()});
  block.metadata.validation_codes = {ValidationCode::kValid,
                                     ValidationCode::kBadSignature};
  block.metadata.orderer_cert = TestClient().Cert().Serialize();
  ExpectEncodersAgree(block.header);
  EXPECT_EQ(block.header.Hash(), crypto::Hash(block.header.Serialize()));
  EXPECT_EQ(block.header.Serialize().size(), BlockHeader::kWireSize);
  ExpectEncodersAgree(block.metadata);
  EXPECT_EQ(block.metadata.WireSize(), block.metadata.Serialize().size());
  ExpectEncodersAgree(block);
  EXPECT_EQ(block.WireSize(), block.Serialize().size());
}

TEST(Encoders, EndorsedPayloadIsTheEndorsersPayloadEncoding) {
  const TransactionEnvelope env = SampleEnvelope();
  ProposalResponsePayload payload;
  payload.proposal_hash = crypto::HashStr(env.tx_id);
  payload.rwset = env.rwset;
  payload.chaincode_result = env.chaincode_result;
  EXPECT_EQ(env.EndorsedPayloadBytes(), payload.Serialize());
  EXPECT_EQ(env.EndorsedPayloadDigest(), EncodedDigest(payload));
}

TEST(Encoders, MutatedCopiesRecomputeFromTheirOwnBytes) {
  // Fill every memo, copy, mutate the copy: its streamed values follow its
  // own bytes while the source keeps its own.
  const Proposal proposal = SampleProposal();
  const crypto::Digest proposal_digest = proposal.SerializedDigest();
  Proposal changed = proposal;
  changed.invocation.args.push_back(ToBytes("extra"));
  EXPECT_EQ(changed.SerializedDigest(), crypto::Hash(changed.Serialize()));
  EXPECT_NE(changed.SerializedDigest(), proposal_digest);
  EXPECT_EQ(proposal.SerializedDigest(), crypto::Hash(proposal.Serialize()));

  const TransactionEnvelope env = SampleEnvelope();
  ExpectMemosMatchFreshBytes(env);
  TransactionEnvelope copy = env;
  copy.rwset.ns_rwsets[0].writes.push_back(KVWrite{"k9", ToBytes("v9"), false});
  copy.endorsements.push_back(copy.endorsements[0]);
  copy.endorsements.back().signature.bytes[0] ^= 1;
  ExpectEncodersAgree(copy);
  ExpectMemosMatchFreshBytes(copy);
  EXPECT_NE(copy.WireSize(), env.WireSize());
  EXPECT_NE(copy.LeafHash(), env.LeafHash());
  ExpectMemosMatchFreshBytes(env);

  Block block = Block::Make(1, nullptr, {SampleEnvelope()});
  const crypto::Digest data_hash = block.DataHash();
  Block tampered = block;
  tampered.transactions.Mutable(0).chaincode_result.push_back(0x5A);
  ExpectEncodersAgree(tampered);
  EXPECT_NE(tampered.DataHash(), data_hash);
  EXPECT_EQ(tampered.WireSize(), tampered.Serialize().size());
}

TEST(ValidationCode, Names) {
  EXPECT_EQ(ValidationCodeName(ValidationCode::kValid), "VALID");
  EXPECT_EQ(ValidationCodeName(ValidationCode::kMvccReadConflict),
            "MVCC_READ_CONFLICT");
  EXPECT_EQ(ValidationCodeName(ValidationCode::kDuplicateTxId),
            "DUPLICATE_TXID");
}

TEST(EndorseStatus, Names) {
  EXPECT_EQ(EndorseStatusName(EndorseStatus::kSuccess), "SUCCESS");
  EXPECT_EQ(EndorseStatusName(EndorseStatus::kDuplicateTxId),
            "DUPLICATE_TXID");
}

}  // namespace
}  // namespace fabricsim::proto
