#include "crypto/signature.h"

#include <cstring>

namespace fabricsim::crypto {
namespace {

// Signature over digest d: H("sig0"||K||d) || H("sig1"||K||d) where K is
// the keystream binder derived from the key pair. Verification recomputes
// the binder from the public key; a mismatched key, message, or byte flip
// fails. Signing works on H(m), as ECDSA does.
Digest Half(std::string_view tag, const Digest& binder, const Digest& d) {
  Sha256 h;
  h.Update(proto::BytesView(reinterpret_cast<const std::uint8_t*>(tag.data()),
                            tag.size()));
  h.Update(proto::BytesView(binder.data(), binder.size()));
  h.Update(proto::BytesView(d.data(), d.size()));
  return h.Finalize();
}

Signature Compose(const Digest& binder, const Digest& msg_digest) {
  Signature sig;
  const Digest a = Half("sig0", binder, msg_digest);
  const Digest b = Half("sig1", binder, msg_digest);
  std::memcpy(sig.bytes.data(), a.data(), 32);
  std::memcpy(sig.bytes.data() + 32, b.data(), 32);
  return sig;
}

// The keystream binder bound to a public key: the per-key component of
// signing and verification.
Digest DeriveBinder(const Digest& public_key) {
  Sha256 h;
  h.Update(proto::BytesView(
      reinterpret_cast<const std::uint8_t*>("binder"), 6));
  h.Update(proto::BytesView(public_key.data(), public_key.size()));
  return h.Finalize();
}

}  // namespace

Signature Signature::FromBytes(proto::BytesView b) {
  Signature s;
  const std::size_t n = b.size() < 64 ? b.size() : 64;
  std::memcpy(s.bytes.data(), b.data(), n);
  return s;
}

KeyPair KeyPair::Derive(std::string_view seed) {
  KeyPair kp;
  kp.private_key_ = HashStr(std::string("priv:") + std::string(seed));
  Sha256 h;
  h.Update(proto::BytesView(reinterpret_cast<const std::uint8_t*>("pub"), 3));
  h.Update(proto::BytesView(kp.private_key_.data(), kp.private_key_.size()));
  kp.public_key_ = h.Finalize();
  kp.binder_ = DeriveBinder(kp.public_key_);
  return kp;
}

Signature KeyPair::Sign(proto::BytesView msg) const {
  return SignDigest(Hash(msg));
}

Signature KeyPair::SignDigest(const Digest& msg_digest) const {
  return Compose(binder_, msg_digest);
}

bool Verify(const Digest& public_key, proto::BytesView msg,
            const Signature& sig) {
  return VerifyDigest(public_key, Hash(msg), sig);
}

bool VerifyDigest(const Digest& public_key, const Digest& msg_digest,
                  const Signature& sig) {
  return Compose(DeriveBinder(public_key), msg_digest) == sig;
}

sim::SimDuration SignCost() { return sim::FromMicros(480); }

sim::SimDuration VerifyCost() { return sim::FromMicros(1350); }

}  // namespace fabricsim::crypto
