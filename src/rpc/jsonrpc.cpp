#include "rpc/jsonrpc.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "rpc/api.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace hammer::rpc {

void throw_client_error(int code, const std::string& message) {
  if (code == kServerError) throw RejectedError(message);
  throw RpcError(code, message);
}

void throw_client_error(const RpcError& error) {
  if (error.code() == kServerError) throw RejectedError(error.what());
  throw error;
}

const json::Value& BatchReply::take() const {
  if (!ok()) throw_client_error(error_code, error_message);
  return result;
}

BatchReply to_batch_reply(const json::Value& response) {
  BatchReply reply;
  if (!response.is_object()) {
    reply.error_code = kParseError;
    reply.error_message = "RPC response is not an object";
    return reply;
  }
  if (response.contains("error")) {
    const json::Value& err = response.at("error");
    reply.error_code = static_cast<int>(err.get_int("code", kInternalError));
    if (reply.error_code == 0) reply.error_code = kInternalError;
    reply.error_message = err.get_string("message", "unknown error");
    return reply;
  }
  if (!response.contains("result")) {
    reply.error_code = kParseError;
    reply.error_message = "RPC response lacks result and error";
    return reply;
  }
  reply.result = response.at("result");
  return reply;
}

std::vector<BatchReply> match_batch_replies(const json::Value& response,
                                            const std::vector<std::uint64_t>& ids) {
  std::vector<BatchReply> out(ids.size());
  if (!response.is_array()) {
    // Whole-batch failure (e.g. the server judged the batch invalid): every
    // entry carries the same error.
    BatchReply shared = to_batch_reply(response);
    for (BatchReply& r : out) r = shared;
    return out;
  }
  std::unordered_map<std::uint64_t, const json::Value*> by_id;
  for (const json::Value& entry : response.as_array()) {
    if (!entry.is_object() || !entry.contains("id") || !entry.at("id").is_int()) continue;
    by_id.emplace(static_cast<std::uint64_t>(entry.at("id").as_int()), &entry);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto it = by_id.find(ids[i]);
    if (it == by_id.end()) {
      out[i].error_code = kInternalError;
      out[i].error_message = "no response for batch id " + std::to_string(ids[i]);
    } else {
      out[i] = to_batch_reply(*it->second);
    }
  }
  return out;
}

void Dispatcher::register_method(const std::string& name, Handler handler) {
  std::scoped_lock lock(mu_);
  HAMMER_CHECK_MSG(methods_.emplace(name, std::move(handler)).second,
                   "duplicate RPC method " + name);
}

bool Dispatcher::has_method(const std::string& name) const {
  std::scoped_lock lock(mu_);
  return methods_.count(name) > 0;
}

std::vector<std::string> Dispatcher::method_names() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(methods_.size());
  for (const auto& [name, handler] : methods_) {
    (void)handler;
    out.push_back(name);
  }
  return out;
}

CallOutcome Dispatcher::invoke(std::string_view method, const json::Value& params) const {
  CallOutcome outcome;
  try {
    Handler handler;
    {
      std::scoped_lock lock(mu_);
      auto it = methods_.find(method);
      if (it == methods_.end()) {
        outcome.error_code = kMethodNotFound;
        // A method from a namespace with no registered methods at all is
        // almost certainly a typo'd (or version-skewed) namespace; report
        // it by name, the same shape deployment uses for unknown spec keys.
        std::string_view ns = method_namespace(method);
        bool namespace_known =
            std::any_of(methods_.begin(), methods_.end(), [ns](const auto& entry) {
              return method_namespace(entry.first) == ns;
            });
        outcome.error_message =
            namespace_known
                ? "unknown method " + std::string(method)
                : "unknown method namespace '" + std::string(ns) + "' in method '" +
                      std::string(method) + "'";
        return outcome;
      }
      handler = it->second;
    }
    if (telemetry::trace_active()) {
      // First traced call of the frame flushes the pending queue-wait span;
      // then the handler runs under its own span so chain-level spans
      // opened inside it parent correctly.
      telemetry::emit_queue_wait_span();
      telemetry::ScopedSpan span(telemetry::SpanKind::kHandler, std::string(method));
      outcome.result = handler(params);
    } else {
      outcome.result = handler(params);
    }
  } catch (const RejectedError& e) {
    outcome.error_code = kServerError;
    outcome.error_message = e.what();
  } catch (const NotFoundError& e) {
    outcome.error_code = kInvalidParams;
    outcome.error_message = e.what();
  } catch (const ParseError& e) {
    outcome.error_code = kInvalidParams;
    outcome.error_message = e.what();
  } catch (const std::exception& e) {
    HLOG_WARN("rpc") << "handler raised: " << e.what();
    outcome.error_code = kInternalError;
    outcome.error_message = e.what();
  }
  return outcome;
}

json::Value Dispatcher::dispatch(const json::Value& request) const {
  json::Value id;  // null until we can extract one
  try {
    if (!request.is_object()) {
      return make_error_response(id, kInvalidRequest, "request must be an object");
    }
    if (request.contains("id")) id = request.at("id");
    if (request.get_string("jsonrpc", "") != "2.0") {
      return make_error_response(id, kInvalidRequest, "missing jsonrpc: \"2.0\"");
    }
    if (!request.contains("method") || !request.at("method").is_string()) {
      return make_error_response(id, kInvalidRequest, "missing method");
    }
    const std::string& method = request.at("method").as_string();
    json::Value params = request.contains("params") ? request.at("params") : json::Value();
    // JSON-codec trace propagation: a `_trace` params member carries the
    // context. It is stripped before the handler sees the params, so traced
    // and untraced calls observe identical arguments.
    telemetry::TraceContext trace;
    if (params.is_object() && params.contains("_trace")) {
      const json::Value& t = params.at("_trace");
      trace.trace_id = static_cast<std::uint64_t>(t.get_int("t", 0));
      trace.span_id = static_cast<std::uint64_t>(t.get_int("s", 0));
      params.as_object().erase("_trace");
    }
    CallOutcome outcome;
    if (trace.sampled()) {
      telemetry::ScopedTrace scope(trace);
      outcome = invoke(method, params);
    } else {
      outcome = invoke(method, params);
    }
    if (!outcome.ok()) {
      return make_error_response(id, outcome.error_code, outcome.error_message);
    }
    return make_result_response(id, std::move(outcome.result));
  } catch (const std::exception& e) {
    HLOG_WARN("rpc") << "dispatch raised: " << e.what();
    return make_error_response(id, kInternalError, e.what());
  }
}

json::Value Dispatcher::dispatch_batch(const json::Value& batch) const {
  if (!batch.is_array()) {
    return make_error_response(json::Value(), kInvalidRequest, "batch must be an array");
  }
  const json::Array& entries = batch.as_array();
  if (entries.empty()) {
    return make_error_response(json::Value(), kInvalidRequest, "empty batch");
  }
  json::Array responses;
  responses.reserve(entries.size());
  // Each entry dispatches independently; a malformed or failing entry
  // yields its own error response without poisoning its siblings.
  for (const json::Value& entry : entries) responses.push_back(dispatch(entry));
  return json::Value(std::move(responses));
}

std::string Dispatcher::dispatch_text(std::string_view request_text) const {
  std::string out;
  dispatch_text_into(request_text, out);
  return out;
}

void Dispatcher::dispatch_text_into(std::string_view request_text, std::string& out) const {
  json::Value request;
  try {
    request = json::Value::parse(request_text);
  } catch (const ParseError& e) {
    make_error_response(json::Value(), kParseError, e.what()).dump_into(out);
    return;
  }
  if (request.is_array()) {
    dispatch_batch(request).dump_into(out);
  } else {
    dispatch(request).dump_into(out);
  }
}

json::Value make_request(std::uint64_t id, const std::string& method, json::Value params) {
  json::Object obj;
  obj["jsonrpc"] = "2.0";
  obj["id"] = static_cast<std::int64_t>(id);
  obj["method"] = method;
  obj["params"] = std::move(params);
  return json::Value(std::move(obj));
}

void write_batch_request(std::string& out, std::uint64_t first_id,
                         const std::vector<BatchCall>& calls) {
  out.push_back('[');
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (i > 0) out.push_back(',');
    // make_request's members in json::Object's sorted key order: id,
    // jsonrpc, method, params.
    out += "{\"id\":";
    out += std::to_string(static_cast<std::int64_t>(first_id + i));
    out += ",\"jsonrpc\":\"2.0\",\"method\":";
    json::Value(calls[i].method).dump_into(out);
    out += ",\"params\":";
    calls[i].params.dump_into(out);
    out.push_back('}');
  }
  out.push_back(']');
}

json::Value make_result_response(const json::Value& id, json::Value result) {
  json::Object obj;
  obj["jsonrpc"] = "2.0";
  obj["id"] = id;
  obj["result"] = std::move(result);
  return json::Value(std::move(obj));
}

json::Value make_error_response(const json::Value& id, int code, const std::string& message) {
  json::Object err;
  err["code"] = code;
  err["message"] = message;
  json::Object obj;
  obj["jsonrpc"] = "2.0";
  obj["id"] = id;
  obj["error"] = json::Value(std::move(err));
  return json::Value(std::move(obj));
}

json::Value take_result(const json::Value& response) {
  if (!response.is_object()) throw ParseError("RPC response is not an object");
  if (response.contains("error")) {
    const json::Value& err = response.at("error");
    throw RpcError(static_cast<int>(err.get_int("code", kInternalError)),
                   err.get_string("message", "unknown error"));
  }
  if (!response.contains("result")) throw ParseError("RPC response lacks result and error");
  return response.at("result");
}

std::future<json::Value> Channel::call_async(const std::string& method, json::Value params,
                                             const CallOptions& opts) {
  std::promise<json::Value> promise;
  try {
    promise.set_value(call(method, std::move(params), opts));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  return promise.get_future();
}

std::vector<BatchReply> Channel::call_batch(const std::vector<BatchCall>& calls,
                                            const CallOptions& opts) {
  std::vector<BatchReply> out;
  out.reserve(calls.size());
  for (const BatchCall& c : calls) {
    BatchReply reply;
    try {
      reply.result = call(c.method, c.params, opts);
    } catch (const RpcError& e) {
      reply.error_code = e.code();
      reply.error_message = e.what();
    }
    out.push_back(std::move(reply));
  }
  return out;
}

InProcChannel::InProcChannel(std::shared_ptr<const Dispatcher> dispatcher)
    : dispatcher_(std::move(dispatcher)) {
  HAMMER_CHECK(dispatcher_ != nullptr);
}

json::Value InProcChannel::call(const std::string& method, json::Value params,
                                const CallOptions& opts) {
  std::uint64_t id;
  {
    std::scoped_lock lock(mu_);
    id = next_id_++;
  }
  // Round-trip through text so the in-process path exercises exactly the
  // same (de)serialization as the TCP path. Tracing installs the context
  // directly (dispatch runs on the calling thread) instead of rewriting the
  // request, so traced and untraced wire bytes stay identical.
  json::Value request = make_request(id, method, std::move(params));
  std::string response_text;
  if (opts.trace.sampled()) {
    telemetry::ScopedTrace scope(opts.trace);
    response_text = dispatcher_->dispatch_text(request.dump());
  } else {
    response_text = dispatcher_->dispatch_text(request.dump());
  }
  return take_result(json::Value::parse(response_text));
}

std::vector<BatchReply> InProcChannel::call_batch(const std::vector<BatchCall>& calls,
                                                  const CallOptions& opts) {
  if (calls.empty()) return {};
  std::uint64_t first_id = 0;
  {
    std::scoped_lock lock(mu_);
    first_id = next_id_;
    next_id_ += calls.size();
  }
  std::vector<std::uint64_t> ids(calls.size());
  std::iota(ids.begin(), ids.end(), first_id);
  std::string request_text;
  write_batch_request(request_text, first_id, calls);
  std::string response_text;
  if (opts.trace.sampled()) {
    telemetry::ScopedTrace scope(opts.trace);
    response_text = dispatcher_->dispatch_text(request_text);
  } else {
    response_text = dispatcher_->dispatch_text(request_text);
  }
  return match_batch_replies(json::Value::parse(response_text), ids);
}

}  // namespace hammer::rpc
