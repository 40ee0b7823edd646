#include "rpc/jsonrpc.hpp"

#include <gtest/gtest.h>

#include "util/errors.hpp"

namespace hammer::rpc {
namespace {

std::shared_ptr<Dispatcher> make_dispatcher() {
  auto d = std::make_shared<Dispatcher>();
  d->register_method("echo", [](const json::Value& params) { return params; });
  d->register_method("add", [](const json::Value& params) {
    return json::Value(params.at("a").as_int() + params.at("b").as_int());
  });
  d->register_method("reject", [](const json::Value&) -> json::Value {
    throw RejectedError("nope");
  });
  d->register_method("crash", [](const json::Value&) -> json::Value {
    throw std::runtime_error("boom");
  });
  return d;
}

TEST(DispatcherTest, DispatchesRegisteredMethod) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(1, "add", json::object({{"a", 2}, {"b", 3}})));
  EXPECT_EQ(take_result(resp).as_int(), 5);
}

TEST(DispatcherTest, MethodNotFound) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(1, "nope", json::Value()));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kMethodNotFound);
}

TEST(DispatcherTest, RejectedErrorMapsToServerError) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(1, "reject", json::Value()));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kServerError);
}

TEST(DispatcherTest, UnexpectedExceptionMapsToInternalError) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(1, "crash", json::Value()));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kInternalError);
}

TEST(DispatcherTest, ParseErrorOnMalformedText) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text("{not json"));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kParseError);
}

TEST(DispatcherTest, MissingJsonrpcVersionRejected) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text(R"({"id":1,"method":"echo"})"));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kInvalidRequest);
}

TEST(DispatcherTest, NonObjectRequestRejected) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text("42"));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kInvalidRequest);
}

TEST(BatchDispatchTest, EmptyBatchIsInvalidRequest) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text("[]"));
  ASSERT_TRUE(resp.is_object());
  EXPECT_EQ(resp.at("error").at("code").as_int(), kInvalidRequest);
  EXPECT_TRUE(resp.at("id").is_null());
}

TEST(BatchDispatchTest, NonObjectEntriesGetPerEntryErrors) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text("[1,2,3]"));
  ASSERT_TRUE(resp.is_array());
  ASSERT_EQ(resp.as_array().size(), 3u);
  for (const json::Value& entry : resp.as_array()) {
    EXPECT_EQ(entry.at("error").at("code").as_int(), kInvalidRequest);
  }
}

TEST(BatchDispatchTest, MixedSuccessAndErrorEntries) {
  auto d = make_dispatcher();
  json::Array batch;
  batch.push_back(make_request(1, "add", json::object({{"a", 2}, {"b", 3}})));
  batch.push_back(make_request(2, "reject", json::Value()));
  batch.push_back(make_request(3, "missing_method", json::Value()));
  batch.push_back(json::Value("not a request"));
  json::Value resp = json::Value::parse(d->dispatch_text(json::Value(std::move(batch)).dump()));
  ASSERT_TRUE(resp.is_array());
  const json::Array& entries = resp.as_array();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].at("result").as_int(), 5);
  EXPECT_EQ(entries[0].at("id").as_int(), 1);
  EXPECT_EQ(entries[1].at("error").at("code").as_int(), kServerError);
  EXPECT_EQ(entries[1].at("id").as_int(), 2);
  EXPECT_EQ(entries[2].at("error").at("code").as_int(), kMethodNotFound);
  EXPECT_EQ(entries[3].at("error").at("code").as_int(), kInvalidRequest);
}

TEST(ClientErrorTest, ServerErrorMapsToRejected) {
  EXPECT_THROW(throw_client_error(kServerError, "pool full"), RejectedError);
  EXPECT_THROW(throw_client_error(kMethodNotFound, "nope"), RpcError);
  EXPECT_THROW(throw_client_error(RpcError(kServerError, "pool full")), RejectedError);
  try {
    throw_client_error(RpcError(kInvalidParams, "bad shard"));
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), kInvalidParams);
  }
}

TEST(BatchReplyTest, TakeMatchesSingleCallTaxonomy) {
  BatchReply ok;
  ok.result = json::Value(7);
  EXPECT_EQ(ok.take().as_int(), 7);

  BatchReply rejected;
  rejected.error_code = kServerError;
  rejected.error_message = "overloaded";
  EXPECT_THROW(rejected.take(), RejectedError);

  BatchReply protocol;
  protocol.error_code = kInvalidParams;
  protocol.error_message = "bad";
  EXPECT_THROW(protocol.take(), RpcError);
}

TEST(MatchBatchRepliesTest, MatchesOutOfOrderById) {
  json::Array responses;
  responses.push_back(make_result_response(json::Value(12), json::Value("second")));
  responses.push_back(make_result_response(json::Value(11), json::Value("first")));
  auto replies = match_batch_replies(json::Value(std::move(responses)), {11, 12});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].take().as_string(), "first");
  EXPECT_EQ(replies[1].take().as_string(), "second");
}

TEST(MatchBatchRepliesTest, WholeBatchErrorFansOut) {
  json::Value err = make_error_response(json::Value(), kInvalidRequest, "empty batch");
  auto replies = match_batch_replies(err, {1, 2, 3});
  ASSERT_EQ(replies.size(), 3u);
  for (const BatchReply& r : replies) EXPECT_EQ(r.error_code, kInvalidRequest);
}

TEST(MatchBatchRepliesTest, MissingResponseBecomesInternalError) {
  json::Array responses;
  responses.push_back(make_result_response(json::Value(1), json::Value("ok")));
  auto replies = match_batch_replies(json::Value(std::move(responses)), {1, 2});
  EXPECT_TRUE(replies[0].ok());
  EXPECT_EQ(replies[1].error_code, kInternalError);
}

TEST(DispatcherTest, ResponseEchoesRequestId) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(77, "echo", json::Value("x")));
  EXPECT_EQ(resp.at("id").as_int(), 77);
}

TEST(DispatcherTest, DuplicateRegistrationThrows) {
  Dispatcher d;
  d.register_method("m", [](const json::Value&) { return json::Value(); });
  EXPECT_THROW(d.register_method("m", [](const json::Value&) { return json::Value(); }),
               LogicError);
}

TEST(DispatcherTest, HasMethod) {
  auto d = make_dispatcher();
  EXPECT_TRUE(d->has_method("echo"));
  EXPECT_FALSE(d->has_method("missing"));
}

TEST(TakeResultTest, ThrowsRpcErrorWithCode) {
  json::Value err = make_error_response(json::Value(1), kServerError, "busy");
  try {
    take_result(err);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), kServerError);
    EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos);
  }
}

TEST(TakeResultTest, MalformedResponsesThrowParseError) {
  EXPECT_THROW(take_result(json::Value(1)), ParseError);
  EXPECT_THROW(take_result(json::object({{"jsonrpc", "2.0"}})), ParseError);
}

TEST(InProcChannelTest, CallRoundTrip) {
  InProcChannel channel(make_dispatcher());
  json::Value result = channel.call("add", json::object({{"a", 40}, {"b", 2}}));
  EXPECT_EQ(result.as_int(), 42);
}

TEST(InProcChannelTest, ErrorsSurfaceAsRpcError) {
  InProcChannel channel(make_dispatcher());
  EXPECT_THROW(channel.call("reject", json::Value()), RpcError);
  EXPECT_THROW(channel.call("unknown", json::Value()), RpcError);
}

TEST(InProcChannelTest, DefaultCallAsyncYieldsResult) {
  InProcChannel channel(make_dispatcher());
  std::future<json::Value> fut = channel.call_async("add", json::object({{"a", 1}, {"b", 2}}));
  EXPECT_EQ(fut.get().as_int(), 3);
  std::future<json::Value> err = channel.call_async("reject", json::Value());
  EXPECT_THROW(err.get(), RpcError);
}

TEST(InProcChannelTest, CallBatchAlignsRepliesWithCalls) {
  InProcChannel channel(make_dispatcher());
  std::vector<BatchCall> calls;
  calls.push_back({"add", json::object({{"a", 1}, {"b", 1}})});
  calls.push_back({"reject", json::Value()});
  calls.push_back({"add", json::object({{"a", 2}, {"b", 2}})});
  std::vector<BatchReply> replies = channel.call_batch(calls);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].take().as_int(), 2);
  EXPECT_EQ(replies[1].error_code, kServerError);
  EXPECT_THROW(replies[1].take(), RejectedError);
  EXPECT_EQ(replies[2].take().as_int(), 4);
}

TEST(InProcChannelTest, EmptyBatchReturnsEmpty) {
  InProcChannel channel(make_dispatcher());
  EXPECT_TRUE(channel.call_batch({}).empty());
}

// The batch request text InProcChannel and the JSON TcpChannel send must be
// byte-identical to dumping an array of make_request() envelopes — the
// writer only skips copying each params tree into an envelope first.
TEST(RequestWriterTest, BatchTextIsByteIdenticalToDumpedEnvelopes) {
  json::Object tx;
  tx["args"] = json::object({{"amount", 42}, {"to", "acct\"7\\\n"}, {"ratio", 0.25}});
  tx["nonce"] = std::int64_t{1} << 40;
  tx["tags"] = json::array({json::Value(), true, "\u00e9\x01", json::Array{}, json::Object{}});
  std::vector<BatchCall> calls{
      {"chain.submit", json::object({{"tx", json::Value(std::move(tx))}})},
      {"chain.info", json::Value()},
      {"we\"ird\tmethod", json::object({})},
      {"echo", json::array({-1, "x"})},
  };
  json::Array entries;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    entries.push_back(make_request(1000 + i, calls[i].method, calls[i].params));
  }
  std::string text;
  write_batch_request(text, 1000, calls);
  EXPECT_EQ(text, json::Value(std::move(entries)).dump());

  std::string single;
  write_batch_request(single, 3, {calls[0]});
  EXPECT_EQ(single, json::Value(json::Array{make_request(3, calls[0].method, calls[0].params)})
                        .dump());
}

TEST(InProcChannelTest, CallBatchKeepsIdsDistinctAcrossBatches) {
  InProcChannel channel(make_dispatcher());
  for (int round = 0; round < 3; ++round) {
    auto replies = channel.call_batch({{"add", json::object({{"a", round}, {"b", 1}})},
                                       {"echo", json::object({{"r", round}})}});
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(replies[0].take().as_int(), round + 1);
    EXPECT_EQ(replies[1].take().at("r").as_int(), round);
  }
}

}  // namespace
}  // namespace hammer::rpc
