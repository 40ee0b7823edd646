// JSON-RPC 2.0 dispatch layer (paper §III-A2: "a generic interface, which
// integrates SDKs of various blockchain platforms and introduces JSON-RPC").
//
// Every SUT — sharded or not, whatever its implementation language would be
// — exposes the same method set through a Dispatcher; the adapter layer
// (src/adapters) talks only JSON-RPC, which is what makes Hammer
// architecture- and language-agnostic.
//
// The client surface supports three call shapes, all id-correlated so they
// compose over a single multiplexed connection (tcp.hpp):
//   call()        one blocking request/response round trip;
//   call_async()  pipelined: the request leaves immediately, the result
//                 arrives through a future when the response frame lands;
//   call_batch()  one framed JSON-RPC 2.0 batch array carrying N calls,
//                 responses matched by id (order-independent).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "telemetry/span.hpp"

namespace hammer::rpc {

// Standard JSON-RPC 2.0 error codes.
inline constexpr int kParseError = -32700;
inline constexpr int kInvalidRequest = -32600;
inline constexpr int kMethodNotFound = -32601;
inline constexpr int kInvalidParams = -32602;
inline constexpr int kInternalError = -32603;
inline constexpr int kServerError = -32000;  // application-level rejection

// Thrown by Channel::call when the server returned an error response.
class RpcError : public hammer::Error {
 public:
  RpcError(int code, const std::string& message)
      : Error("rpc error " + std::to_string(code) + ": " + message), code_(code) {}
  int code() const { return code_; }

 private:
  int code_;
};

// The one place the JSON-RPC error taxonomy maps onto client-side exception
// types: kServerError (the SUT rejected the operation) becomes
// RejectedError so drivers can count overload separately from transport and
// protocol failures; every other code stays RpcError. Single calls
// (ChainAdapter) and batch entries (BatchReply::take) share this mapping so
// both paths fail identically.
[[noreturn]] void throw_client_error(int code, const std::string& message);
[[noreturn]] void throw_client_error(const RpcError& error);

// One call of a batch request.
struct BatchCall {
  std::string method;
  json::Value params;
};

// One entry of a batch response. error_code == 0 means success (JSON-RPC
// error codes are never 0).
struct BatchReply {
  json::Value result;
  int error_code = 0;
  std::string error_message;

  bool ok() const { return error_code == 0; }
  // Returns the result, or throws what the equivalent single call() would
  // have thrown (through throw_client_error).
  const json::Value& take() const;
};

// Converts one response envelope into a BatchReply (never throws).
BatchReply to_batch_reply(const json::Value& response);

// Matches a batch response to the request ids it answers, order-independent.
// A single error object (the server rejected the whole batch) is fanned out
// to every entry; ids with no response become kInternalError entries.
std::vector<BatchReply> match_batch_replies(const json::Value& response,
                                            const std::vector<std::uint64_t>& ids);

// Handler receives the `params` value and returns the `result` value.
// Throwing maps to an error response (RejectedError -> kServerError,
// NotFoundError/ParseError -> kInvalidParams, anything else -> internal).
using Handler = std::function<json::Value(const json::Value& params)>;

// Outcome of one dispatched call without the JSON-RPC envelope around it.
// error_code == 0 means success (JSON-RPC error codes are never 0).
struct CallOutcome {
  json::Value result;
  int error_code = 0;
  std::string error_message;
  bool ok() const { return error_code == 0; }
};

class Dispatcher {
 public:
  void register_method(const std::string& name, Handler handler);
  bool has_method(const std::string& name) const;

  // Every registered method name, sorted — the registry view rpc.api (see
  // rpc/api.hpp) serves to clients.
  std::vector<std::string> method_names() const;

  // Full wire-level entry point: parses a request document, dispatches, and
  // serializes the response (never throws; errors become error responses).
  // A JSON array is treated as a JSON-RPC 2.0 batch: each entry dispatches
  // independently and the response is the array of per-entry responses
  // (an empty batch is a kInvalidRequest error, per spec).
  std::string dispatch_text(std::string_view request_text) const;

  // Same, serializing the response into `out` (appended) so transport
  // workers can reuse pooled buffers instead of materializing a fresh
  // string per response.
  void dispatch_text_into(std::string_view request_text, std::string& out) const;

  // Envelope-free entry point used by the binary wire codec: looks up
  // `method` in the same table and maps handler exceptions onto the same
  // error codes as dispatch(), but touches no JSON-RPC envelope. Never
  // throws.
  CallOutcome invoke(std::string_view method, const json::Value& params) const;

  // Structured entry points used by the in-process channel.
  json::Value dispatch(const json::Value& request) const;
  json::Value dispatch_batch(const json::Value& batch) const;

 private:
  mutable std::mutex mu_;
  // Heterogeneous compare: invoke() looks methods up by string_view with no
  // temporary std::string on the hot path.
  std::map<std::string, Handler, std::less<>> methods_;
};

// Per-call knobs threaded through every Channel entry point. Zero values
// mean "use the channel's defaults", so `{}` keeps legacy behaviour.
struct CallOptions {
  // Deadline for the blocking wait of call() / call_batch() (a batch is one
  // logical round trip, so one deadline covers it). 0 = the channel's
  // constructor-configured timeout. call_async ignores it: the future's
  // wait policy belongs to the caller.
  std::chrono::milliseconds deadline{0};

  // Distributed-tracing context for this call (batch: for the whole frame).
  // Default-constructed = unsampled, which costs one branch per call.
  // Transports propagate it only when the peer negotiated the "trace"
  // feature, so old servers never see it.
  telemetry::TraceContext trace;
};

// Client-side transport abstraction. Implementations: InProcChannel (below)
// and TcpChannel (tcp.hpp).
class Channel {
 public:
  virtual ~Channel() = default;

  // Performs one call; returns the result value or throws RpcError /
  // TransportError (TimeoutError when opts.deadline passes unanswered).
  virtual json::Value call(const std::string& method, json::Value params,
                           const CallOptions& opts = {}) = 0;

  // Pipelined call: returns a future that yields the result or rethrows
  // what call() would have thrown. The default implementation performs the
  // call synchronously and returns a ready future, so every Channel
  // supports the API; multiplexing transports override it with a
  // genuinely non-blocking path.
  virtual std::future<json::Value> call_async(const std::string& method, json::Value params,
                                              const CallOptions& opts = {});

  // Performs N calls as one logical round trip; replies align with `calls`
  // by index regardless of the order responses arrive in. The default
  // implementation loops over call() so non-batching transports keep
  // working; transports with wire-level batch support override it.
  virtual std::vector<BatchReply> call_batch(const std::vector<BatchCall>& calls,
                                             const CallOptions& opts = {});

  // Offset of the peer's steady clock relative to ours, measured by the
  // hello handshake. Identity for in-process channels; a transport that
  // never negotiated reports 0 too (spans then merge unshifted, which is
  // the best available guess).
  virtual telemetry::ClockOffset clock_offset() const { return {}; }
};

// Zero-copy-ish channel for in-process SUTs. Still round-trips through the
// JSON-RPC envelope so behaviour matches the TCP path. Dispatch is
// synchronous, so CallOptions deadlines have nothing to bound and are
// ignored.
class InProcChannel final : public Channel {
 public:
  explicit InProcChannel(std::shared_ptr<const Dispatcher> dispatcher);

  json::Value call(const std::string& method, json::Value params,
                   const CallOptions& opts = {}) override;
  std::vector<BatchReply> call_batch(const std::vector<BatchCall>& calls,
                                     const CallOptions& opts = {}) override;

 private:
  std::shared_ptr<const Dispatcher> dispatcher_;
  std::uint64_t next_id_ = 1;
  std::mutex mu_;
};

// Request/response envelope helpers shared by transports.
json::Value make_request(std::uint64_t id, const std::string& method, json::Value params);
// Appends a JSON-RPC batch array of `calls` with ids first_id, first_id+1,
// ... — byte for byte the dump of a json::Array of make_request() values,
// but written around each call's params in place instead of deep-copying
// every params tree into a request envelope first.
void write_batch_request(std::string& out, std::uint64_t first_id,
                         const std::vector<BatchCall>& calls);
json::Value make_result_response(const json::Value& id, json::Value result);
json::Value make_error_response(const json::Value& id, int code, const std::string& message);

// Extracts the result from a response or throws RpcError/ParseError.
json::Value take_result(const json::Value& response);

}  // namespace hammer::rpc
