#include "smr/request.h"

#include <sstream>

#include "crypto/sha256.h"

namespace bftlab {

void ClientRequest::EncodeBodyTo(Encoder* enc) const {
  enc->PutU32(client);
  enc->PutU64(timestamp);
  enc->PutBytes(operation);
}

void ClientRequest::EncodeTo(Encoder* enc) const {
  EncodeBodyTo(enc);
  enc->PutU32(signature.signer);
}

Result<ClientRequest> ClientRequest::DecodeFrom(Decoder* dec) {
  ClientRequest req;
  BFTLAB_ASSIGN_OR_RETURN(req.client, dec->GetU32());
  BFTLAB_ASSIGN_OR_RETURN(req.timestamp, dec->GetU64());
  BFTLAB_ASSIGN_OR_RETURN(req.operation, dec->GetBytes());
  BFTLAB_ASSIGN_OR_RETURN(req.signature.signer, dec->GetU32());
  return req;
}

Digest ClientRequest::ComputeDigest() const {
  Encoder enc;
  EncodeBodyTo(&enc);
  return Sha256::Hash(enc.buffer());
}

void ClientRequest::Sign(CryptoContext* ctx) {
  Encoder enc;
  EncodeBodyTo(&enc);
  signature = ctx->Sign(enc.buffer());
}

bool ClientRequest::VerifySignature(CryptoContext* ctx) const {
  if (signature.signer != client) return false;
  Encoder enc;
  EncodeBodyTo(&enc);
  return ctx->Verify(signature, enc.buffer());
}

void Batch::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(requests.size()));
  for (const auto& r : requests) r.EncodeTo(enc);
}

Result<Batch> Batch::DecodeFrom(Decoder* dec) {
  Batch batch;
  uint32_t count;
  BFTLAB_ASSIGN_OR_RETURN(count, dec->GetU32());
  batch.requests.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Result<ClientRequest> r = ClientRequest::DecodeFrom(dec);
    if (!r.ok()) return r.status();
    batch.requests.push_back(std::move(r).value());
  }
  return batch;
}

Digest Batch::ComputeDigest() const {
  std::vector<Digest> digests;
  digests.reserve(requests.size());
  for (const auto& r : requests) digests.push_back(r.ComputeDigest());
  return DigestOf(digests);
}

Digest Batch::DigestOf(const std::vector<Digest>& request_digests) {
  Sha256 h;
  for (const Digest& d : request_digests) h.Update(d.AsSlice());
  return h.Finalize();
}

size_t Batch::WireBytes() const {
  Encoder enc;
  EncodeTo(&enc);
  return enc.size() + requests.size() * kSignatureBytes;
}

void RequestMessage::EncodeTo(Encoder* enc) const { request_.EncodeTo(enc); }

std::string RequestMessage::DebugString() const {
  std::ostringstream os;
  os << "REQUEST{client=" << request_.client << " ts=" << request_.timestamp
     << " op_bytes=" << request_.operation.size() << "}";
  return os.str();
}

void ReplyMessage::EncodeTo(Encoder* enc) const {
  enc->PutU32(kMsgReply);
  enc->PutU64(view_);
  enc->PutU32(replica_);
  enc->PutU32(client_);
  enc->PutU64(timestamp_);
  enc->PutBytes(result_);
  enc->PutBool(speculative_);
  enc->PutU64(seq_);
}

std::string ReplyMessage::DebugString() const {
  std::ostringstream os;
  os << "REPLY{view=" << view_ << " replica=" << replica_
     << " client=" << client_ << " ts=" << timestamp_
     << (speculative_ ? " speculative" : "") << "}";
  return os.str();
}

}  // namespace bftlab
