// Client requests, batches, and the client-facing request/reply wire
// messages shared by every protocol.

#ifndef BFTLAB_SMR_REQUEST_H_
#define BFTLAB_SMR_REQUEST_H_

#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/codec.h"
#include "common/result.h"
#include "common/types.h"
#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "sim/message.h"

namespace bftlab {

/// Message type tags shared across protocols (client-facing traffic).
/// Protocol-internal messages use tags >= 100, scoped per protocol.
enum SmrMessageType : uint32_t {
  kMsgClientRequest = 1,
  kMsgReply = 2,
};

/// A signed client operation to be ordered and executed.
struct ClientRequest {
  ClientId client = 0;
  RequestTimestamp timestamp = 0;  // Per-client, strictly increasing.
  /// State-machine opcode payload. Shared and immutable: copying the
  /// request into batches, proposals, and retransmissions shares one
  /// allocation instead of duplicating the bytes.
  SharedBuffer operation;
  Signature signature;             // Client's signature over the body.

  /// Encodes the signed body (everything except the signature).
  void EncodeBodyTo(Encoder* enc) const;
  /// Encodes body + signer id (signature tag accounted as auth bytes).
  void EncodeTo(Encoder* enc) const;
  static Result<ClientRequest> DecodeFrom(Decoder* dec);

  /// Digest of the signed body; identifies the request.
  Digest ComputeDigest() const;

  /// Signs the request as `ctx`'s node (must be the client).
  void Sign(CryptoContext* ctx);
  /// Verifies the client signature.
  bool VerifySignature(CryptoContext* ctx) const;

  bool operator==(const ClientRequest& o) const {
    return client == o.client && timestamp == o.timestamp &&
           operation == o.operation;
  }
};

/// An ordered batch of requests (the unit most protocols agree on).
struct Batch {
  std::vector<ClientRequest> requests;

  void EncodeTo(Encoder* enc) const;
  static Result<Batch> DecodeFrom(Decoder* dec);
  /// Digest over the concatenated request digests.
  Digest ComputeDigest() const;
  /// ComputeDigest() from request digests already computed, in order.
  static Digest DigestOf(const std::vector<Digest>& request_digests);
  size_t WireBytes() const;
  bool empty() const { return requests.empty(); }
};

/// Wire message carrying a client request to replicas.
class RequestMessage : public Message {
 public:
  explicit RequestMessage(ClientRequest request)
      : request_(std::move(request)) {}

  const ClientRequest& request() const { return request_; }

  uint32_t type() const override { return kMsgClientRequest; }
  void EncodeTo(Encoder* enc) const override;
  size_t auth_wire_bytes() const override { return kSignatureBytes; }
  std::string DebugString() const override;

 private:
  ClientRequest request_;
};

/// Wire message carrying a replica's reply to the client. Includes the
/// view so clients can track the current leader, and the replica id so
/// clients can count distinct matching replies.
class ReplyMessage : public Message {
 public:
  ReplyMessage(ViewNumber view, ReplicaId replica, ClientId client,
               RequestTimestamp timestamp, Buffer result, bool speculative,
               SequenceNumber seq = 0)
      : view_(view),
        replica_(replica),
        client_(client),
        timestamp_(timestamp),
        result_(std::move(result)),
        speculative_(speculative),
        seq_(seq) {}

  ViewNumber view() const { return view_; }
  ReplicaId replica() const { return replica_; }
  ClientId client() const { return client_; }
  RequestTimestamp timestamp() const { return timestamp_; }
  const Buffer& result() const { return result_; }
  /// True for replies sent before commitment (Zyzzyva/PoE speculation).
  bool speculative() const { return speculative_; }
  /// Sequence number the request executed at (0 when not reported);
  /// speculative protocols' clients use it to build commit certificates.
  SequenceNumber seq() const { return seq_; }

  uint32_t type() const override { return kMsgReply; }
  void EncodeTo(Encoder* enc) const override;
  size_t auth_wire_bytes() const override { return kMacBytes; }
  std::string DebugString() const override;

 private:
  ViewNumber view_;
  ReplicaId replica_;
  ClientId client_;
  RequestTimestamp timestamp_;
  Buffer result_;
  bool speculative_;
  SequenceNumber seq_;
};

}  // namespace bftlab

#endif  // BFTLAB_SMR_REQUEST_H_
