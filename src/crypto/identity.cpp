#include "crypto/identity.h"

#include <algorithm>
#include <stdexcept>

namespace fabricsim::crypto {

std::string RoleName(Role r) {
  switch (r) {
    case Role::kClient:
      return "client";
    case Role::kPeer:
      return "peer";
    case Role::kOrderer:
      return "orderer";
    case Role::kAdmin:
      return "admin";
  }
  return "unknown";
}

namespace {
std::optional<Role> RoleFromName(std::string_view s) {
  if (s == "client") return Role::kClient;
  if (s == "peer") return Role::kPeer;
  if (s == "orderer") return Role::kOrderer;
  if (s == "admin") return Role::kAdmin;
  return std::nullopt;
}
}  // namespace

proto::Bytes Certificate::SignedBody() const {
  proto::Writer w;
  w.Str(subject);
  w.Str(msp_id);
  w.U8(static_cast<std::uint8_t>(role));
  w.Blob(proto::BytesView(subject_public_key.data(), subject_public_key.size()));
  w.Blob(proto::BytesView(issuer_public_key.data(), issuer_public_key.size()));
  return w.Take();
}

proto::Bytes Certificate::Serialize() const {
  proto::Writer w;
  w.Blob(SignedBody());
  w.Blob(issuer_signature.ToBytes());
  return w.Take();
}

std::optional<Certificate> Certificate::Deserialize(proto::BytesView data) {
  try {
    proto::Reader outer(data);
    const proto::BytesView body = outer.BlobView();
    const proto::BytesView sig = outer.BlobView();

    proto::Reader r(body);
    Certificate cert;
    cert.subject = r.Str();
    cert.msp_id = r.Str();
    cert.role = static_cast<Role>(r.U8());
    const proto::BytesView subj_pk = r.BlobView();
    const proto::BytesView issuer_pk = r.BlobView();
    if (subj_pk.size() != cert.subject_public_key.size() ||
        issuer_pk.size() != cert.issuer_public_key.size()) {
      return std::nullopt;
    }
    std::copy(subj_pk.begin(), subj_pk.end(),
              cert.subject_public_key.begin());
    std::copy(issuer_pk.begin(), issuer_pk.end(),
              cert.issuer_public_key.begin());
    cert.issuer_signature = Signature::FromBytes(sig);
    return cert;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::string Principal::ToString() const {
  return msp_id + "." + RoleName(role);
}

std::optional<Principal> Principal::Parse(std::string_view s) {
  const auto dot = s.rfind('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 >= s.size()) {
    return std::nullopt;
  }
  const auto role = RoleFromName(s.substr(dot + 1));
  if (!role) return std::nullopt;
  return Principal{std::string(s.substr(0, dot)), *role};
}

bool Identity::Satisfies(const Principal& p) const {
  if (cert_.msp_id != p.msp_id) return false;
  return cert_.role == p.role || cert_.role == Role::kAdmin;
}

}  // namespace fabricsim::crypto
