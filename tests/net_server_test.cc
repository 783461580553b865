// End-to-end tests for src/net/server.h against a real RpcServer on an
// ephemeral loopback port: the full client path (Ping/List/Shed/Wait/
// Status/Cancel), the load-bearing equivalence claim — a Shed over TCP
// returns byte-for-byte the same result as the same job run in-process —
// and the overload/robustness contracts (admission control answers
// ResourceExhausted instead of hanging; malformed frames get an error frame
// and a counted close, never a crash).

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/shedder_factory.h"
#include "graph/binary_io.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"
#include "testing/test_graphs.h"

namespace edgeshed::net {
namespace {

using edgeshed::testing::Clique;
using std::chrono::milliseconds;

/// One store + scheduler + server on an ephemeral port, with a 40-node
/// clique registered as "clique" (deterministic, big enough that shedding
/// does real work: 780 edges).
class RpcServerTest : public ::testing::Test {
 protected:
  void SetUp() override { StartServer(RpcServerOptions{}); }

  void StartServer(RpcServerOptions options) {
    service::JobScheduler::Options scheduler_options;
    scheduler_options.workers = 2;
    StartServer(options, scheduler_options);
  }

  void StartServer(RpcServerOptions options,
                   service::JobScheduler::Options scheduler_options) {
    server_.reset();
    scheduler_.reset();
    store_.reset();

    store_ = std::make_unique<service::GraphStore>(
        service::GraphStoreOptions{}, &metrics_);
    ASSERT_TRUE(store_
                    ->Register("clique",
                               [] { return StatusOr<graph::Graph>(
                                        Clique(40)); })
                    .ok());

    scheduler_ = std::make_unique<service::JobScheduler>(
        store_.get(), &metrics_, scheduler_options);

    options.port = 0;
    server_ = std::make_unique<RpcServer>(store_.get(), scheduler_.get(),
                                          &metrics_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  RpcClient MakeClient(int max_attempts = 1) {
    RpcClientOptions options;
    options.port = server_->port();
    options.max_attempts = max_attempts;
    options.backoff_initial = milliseconds(10);
    options.backoff_max = milliseconds(50);
    return RpcClient(options);
  }

  uint64_t Counter(const std::string& name) {
    return metrics_.GetCounter(name)->Value();
  }

  /// Registers a dataset whose loader sleeps before producing a small
  /// clique, so a job on it reliably outlives timeouts under test.
  void RegisterSlowDataset(const std::string& name, milliseconds delay) {
    ASSERT_TRUE(store_
                    ->Register(name,
                               [delay] {
                                 std::this_thread::sleep_for(delay);
                                 return StatusOr<graph::Graph>(Clique(16));
                               })
                    .ok());
  }

  obs::MetricsRegistry metrics_;
  std::unique_ptr<service::GraphStore> store_;
  std::unique_ptr<service::JobScheduler> scheduler_;
  std::unique_ptr<RpcServer> server_;
};

// ---------------------------------------------------------------------------
// Happy paths

TEST_F(RpcServerTest, PingEchoesToken) {
  RpcClient client = MakeClient();
  auto token = client.Ping(0xC0FFEE);
  ASSERT_TRUE(token.ok()) << token.status();
  EXPECT_EQ(*token, 0xC0FFEEu);
  EXPECT_GE(Counter("net.requests_total"), 1u);
  EXPECT_GT(Counter("net.bytes_in"), 0u);
  // The server counts sent bytes after send() returns, so the reply can
  // reach the client before the count lands: wait for it, don't race it.
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (Counter("net.bytes_out") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_GT(Counter("net.bytes_out"), 0u);
}

TEST_F(RpcServerTest, ListDatasetsReturnsRegisteredNames) {
  RpcClient client = MakeClient();
  auto names = client.ListDatasets();
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(*names, std::vector<std::string>{"clique"});
}

TEST_F(RpcServerTest, ListDatasetsReplyIsSorted) {
  // Registration order is zebra-then-alpha; the wire reply is sorted so
  // clients and scripts see a stable enumeration.
  auto loader = [] { return StatusOr<graph::Graph>(Clique(4)); };
  ASSERT_TRUE(store_->Register("zebra", loader).ok());
  ASSERT_TRUE(store_->Register("alpha", loader).ok());
  RpcClient client = MakeClient();
  auto names = client.ListDatasets();
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(*names,
            (std::vector<std::string>{"alpha", "clique", "zebra"}));
}

TEST_F(RpcServerTest, ShedOverTcpMatchesInProcessExactly) {
  // The server dispatches onto the same deterministic scheduler the library
  // uses, so a remote Shed must reproduce an in-process Reduce bit for bit.
  const graph::Graph g = Clique(40);
  auto shedder = core::MakeShedderByName("crr", 42);
  ASSERT_TRUE(shedder.ok());
  auto local = (*shedder)->Shed(g, {.p = 0.5});
  ASSERT_TRUE(local.ok()) << local.status();

  RpcClient client = MakeClient();
  ShedRequest request;
  request.dataset = "clique";
  request.method = "crr";
  request.p = 0.5;
  request.seed = 42;
  request.wait = true;
  auto remote = client.Shed(request);
  ASSERT_TRUE(remote.ok()) << remote.status();
  ASSERT_TRUE(remote->has_result);
  EXPECT_EQ(remote->result.kept_edges, local->kept_edges.size());
  EXPECT_DOUBLE_EQ(remote->result.total_delta, local->total_delta);
  EXPECT_DOUBLE_EQ(remote->result.average_delta, local->average_delta);
  EXPECT_FALSE(remote->result.deduplicated);

  // Submit the identical spec again: the scheduler's result cache answers,
  // and the wire layer reports the dedup bit faithfully.
  auto again = client.Shed(request);
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_TRUE(again->has_result);
  EXPECT_EQ(again->result.kept_edges, local->kept_edges.size());
  EXPECT_TRUE(again->result.deduplicated);
}

TEST_F(RpcServerTest, SubmitThenWaitThenStatus) {
  RpcClient client = MakeClient();
  ShedRequest request;
  request.dataset = "clique";
  request.p = 0.5;
  request.wait = false;  // submit-only: one fast round trip
  auto submitted = client.Shed(request);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_FALSE(submitted->has_result);
  ASSERT_GT(submitted->job_id, 0u);

  auto summary = client.Wait(submitted->job_id);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_GT(summary->kept_edges, 0u);

  auto status = client.GetJobStatus(submitted->job_id);
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(static_cast<service::JobState>(status->state),
            service::JobState::kDone);
  auto code = StatusCodeFromWireCode(status->code);
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(*code, StatusCode::kOk);
}

// ---------------------------------------------------------------------------
// Error mapping over the wire

TEST_F(RpcServerTest, UnknownDatasetComesBackNotFound) {
  RpcClient client = MakeClient();
  ShedRequest request;
  request.dataset = "no-such-dataset";
  auto response = client.Shed(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST_F(RpcServerTest, BadPreservationRatioComesBackInvalidArgument) {
  RpcClient client = MakeClient();
  ShedRequest request;
  request.dataset = "clique";
  request.p = 1.5;
  auto response = client.Shed(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RpcServerTest, UnknownJobIdComesBackNotFound) {
  RpcClient client = MakeClient();
  auto summary = client.Wait(424242);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kNotFound);

  auto status = client.GetJobStatus(424242);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Admission control

TEST_F(RpcServerTest, OverInflightCapAnswersResourceExhaustedNotHangs) {
  // max_inflight=0 rejects every dispatched request immediately. Ping is
  // handled on the loop thread and must keep working — that asymmetry is
  // what makes overload observable from outside.
  RpcServerOptions options;
  options.max_inflight = 0;
  StartServer(options);

  RpcClient client = MakeClient();
  auto token = client.Ping(5);
  ASSERT_TRUE(token.ok()) << token.status();

  ShedRequest request;
  request.dataset = "clique";
  const auto started = std::chrono::steady_clock::now();
  auto response = client.Shed(request);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  // Rejection, not queuing: the answer comes back promptly.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_GE(Counter("net.rejected_overload"), 1u);
}

TEST_F(RpcServerTest, OverConnectionCapGetsErrorFrameAndClose) {
  RpcServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  auto first = ConnectTcp("127.0.0.1", server_->port(), milliseconds(2000));
  ASSERT_TRUE(first.ok()) << first.status();
  // Prove the first connection is established server-side before racing a
  // second one against the cap.
  ASSERT_TRUE(
      SendAll(*first, EncodeFrame(MessageType::kPingRequest,
                                  EncodePing(PingMessage{1})))
          .ok());
  std::string buffer;
  char chunk[512];
  while (true) {
    auto n = RecvSome(*first, chunk, sizeof(chunk));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_GT(*n, 0u);
    buffer.append(chunk, *n);
    if (DecodeFrame(buffer).event == DecodeEvent::kFrame) break;
  }

  auto second = ConnectTcp("127.0.0.1", server_->port(), milliseconds(2000));
  ASSERT_TRUE(second.ok()) << second.status();
  std::string rejection;
  while (true) {
    auto n = RecvSome(*second, chunk, sizeof(chunk));
    if (!n.ok() || *n == 0) break;  // close after the error frame is fine
    rejection.append(chunk, *n);
    if (DecodeFrame(rejection).event == DecodeEvent::kFrame) break;
  }
  DecodeResult decoded = DecodeFrame(rejection);
  ASSERT_EQ(decoded.event, DecodeEvent::kFrame);
  EXPECT_EQ(decoded.frame.type, MessageType::kErrorResponse);
  std::string_view body;
  Status status = DecodeResponsePayload(decoded.frame.payload, &body);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);

  CloseFd(*first);
  CloseFd(*second);
}

// ---------------------------------------------------------------------------
// Malformed input

TEST_F(RpcServerTest, MalformedFrameGetsErrorResponseAndCountedClose) {
  auto fd = ConnectTcp("127.0.0.1", server_->port(), milliseconds(2000));
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(SendAll(*fd, "this is not an ESRP frame at all....").ok());

  std::string buffer;
  char chunk[512];
  while (true) {
    auto n = RecvSome(*fd, chunk, sizeof(chunk));
    if (!n.ok() || *n == 0) break;
    buffer.append(chunk, *n);
    if (DecodeFrame(buffer).event == DecodeEvent::kFrame) break;
  }
  DecodeResult decoded = DecodeFrame(buffer);
  ASSERT_EQ(decoded.event, DecodeEvent::kFrame);
  EXPECT_EQ(decoded.frame.type, MessageType::kErrorResponse);
  std::string_view body;
  Status status = DecodeResponsePayload(decoded.frame.payload, &body);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_GE(Counter("net.malformed_frames"), 1u);
  CloseFd(*fd);

  // The server is still healthy for well-formed clients.
  RpcClient client = MakeClient();
  auto token = client.Ping(9);
  ASSERT_TRUE(token.ok()) << token.status();
}

TEST_F(RpcServerTest, ChecksumFlippedFrameIsRejectedCleanly) {
  std::string frame = EncodeFrame(MessageType::kPingRequest,
                                  EncodePing(PingMessage{3}));
  frame.back() = static_cast<char>(frame.back() ^ 0x01);

  auto fd = ConnectTcp("127.0.0.1", server_->port(), milliseconds(2000));
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(SendAll(*fd, frame).ok());
  std::string buffer;
  char chunk[512];
  while (true) {
    auto n = RecvSome(*fd, chunk, sizeof(chunk));
    if (!n.ok() || *n == 0) break;
    buffer.append(chunk, *n);
    if (DecodeFrame(buffer).event == DecodeEvent::kFrame) break;
  }
  DecodeResult decoded = DecodeFrame(buffer);
  ASSERT_EQ(decoded.event, DecodeEvent::kFrame);
  EXPECT_EQ(decoded.frame.type, MessageType::kErrorResponse);
  std::string_view body;
  Status status = DecodeResponsePayload(decoded.frame.payload, &body);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  CloseFd(*fd);
}

TEST_F(RpcServerTest, WellFramedUndecodablePayloadKeepsConnectionAlive) {
  // A frame that parses at the framing layer but whose payload is garbage
  // for its type answers InvalidArgument; stream sync is intact, so the
  // same connection serves the next request. One raw connection, two
  // round trips.
  auto fd = ConnectTcp("127.0.0.1", server_->port(), milliseconds(2000));
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(
      SendAll(*fd, EncodeFrame(MessageType::kWaitRequest, "xx")).ok());

  std::string buffer;
  char chunk[512];
  while (true) {
    auto n = RecvSome(*fd, chunk, sizeof(chunk));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_GT(*n, 0u);
    buffer.append(chunk, *n);
    if (DecodeFrame(buffer).event == DecodeEvent::kFrame) break;
  }
  DecodeResult first = DecodeFrame(buffer);
  ASSERT_EQ(first.event, DecodeEvent::kFrame);
  EXPECT_EQ(first.frame.type, MessageType::kWaitResponse);
  std::string_view body;
  EXPECT_EQ(DecodeResponsePayload(first.frame.payload, &body).code(),
            StatusCode::kInvalidArgument);

  buffer.erase(0, first.consumed);
  ASSERT_TRUE(SendAll(*fd, EncodeFrame(MessageType::kPingRequest,
                                       EncodePing(PingMessage{8})))
                  .ok());
  while (true) {
    auto n = RecvSome(*fd, chunk, sizeof(chunk));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_GT(*n, 0u);
    buffer.append(chunk, *n);
    if (DecodeFrame(buffer).event == DecodeEvent::kFrame) break;
  }
  DecodeResult second = DecodeFrame(buffer);
  ASSERT_EQ(second.event, DecodeEvent::kFrame);
  EXPECT_EQ(second.frame.type, MessageType::kPingResponse);
  CloseFd(*fd);
}

// ---------------------------------------------------------------------------
// Lifecycle

TEST_F(RpcServerTest, IdleConnectionsAreReaped) {
  RpcServerOptions options;
  options.idle_timeout = milliseconds(200);
  StartServer(options);

  auto fd = ConnectTcp("127.0.0.1", server_->port(), milliseconds(2000));
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(SetRecvTimeout(*fd, milliseconds(3000)).ok());
  // Send nothing; the server should close us. RecvSome sees EOF (0).
  char chunk[64];
  auto n = RecvSome(*fd, chunk, sizeof(chunk));
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0u);
  CloseFd(*fd);
}

TEST_F(RpcServerTest, StopIsIdempotentAndServerRestarts) {
  // Starting a running server is refused; Stop is idempotent; and after a
  // Stop the same instance can Start again (fresh port) and serve.
  EXPECT_EQ(server_->Start().code(), StatusCode::kFailedPrecondition);
  server_->Stop();
  server_->Stop();  // second Stop is a no-op, not a crash

  ASSERT_TRUE(server_->Start().ok());
  RpcClient client = MakeClient();
  auto token = client.Ping(77);
  ASSERT_TRUE(token.ok()) << token.status();
  EXPECT_EQ(*token, 77u);
}

TEST_F(RpcServerTest, ConcurrentClientsAllSucceed) {
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<Status> results(kThreads, Status::Internal("unset"));
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([this, i, &results] {
      RpcClient client = MakeClient(/*max_attempts=*/3);
      ShedRequest request;
      request.dataset = "clique";
      request.p = 0.5;
      request.seed = static_cast<uint64_t>(i);  // distinct jobs, no dedup
      auto response = client.Shed(request);
      results[static_cast<size_t>(i)] =
          response.ok() ? Status::OK() : response.status();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(results[static_cast<size_t>(i)].ok())
        << results[static_cast<size_t>(i)];
  }
  EXPECT_GE(Counter("net.requests_total"), static_cast<uint64_t>(kThreads));
}

// ---------------------------------------------------------------------------
// Output snapshots (ShedRequest::output)

TEST_F(RpcServerTest, ShedWithOutputWritesTheKeptSnapshot) {
  const std::string out_dir = ::testing::TempDir() + "/rpc_out";
  std::filesystem::create_directories(out_dir);
  RpcServerOptions options;
  options.output_dir = out_dir;
  StartServer(options);

  RpcClient client = MakeClient();
  ShedRequest request;
  request.dataset = "clique";
  request.p = 0.5;
  request.wait = true;
  request.output = "clique.kept";
  auto response = client.Shed(request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->has_result);

  // The snapshot is the kept subgraph of the same in-process reduction.
  auto shedder = core::MakeShedderByName("crr", 42);
  ASSERT_TRUE(shedder.ok());
  auto local = (*shedder)->Shed(Clique(40), {.p = 0.5});
  ASSERT_TRUE(local.ok());
  auto snapshot = graph::LoadSnapshot(out_dir + "/clique.kept.esg");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->graph.NumNodes(), 40u);
  EXPECT_EQ(snapshot->graph.NumEdges(), local->kept_edges.size());
}

TEST_F(RpcServerTest, ShedWithOutputNeedsAnOutputDirectory) {
  // The default fixture server has no output_dir: requests naming an output
  // are refused outright instead of silently dropping the snapshot.
  RpcClient client = MakeClient();
  ShedRequest request;
  request.dataset = "clique";
  request.output = "kept";
  auto response = client.Shed(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find("output_dir"), std::string::npos)
      << response.status().message();
}

TEST_F(RpcServerTest, ShedWithUnsafeOutputNameIsRejected) {
  RpcServerOptions options;
  options.output_dir = ::testing::TempDir();
  StartServer(options);
  RpcClient client = MakeClient();
  for (const char* bad : {"../escape", "a/b", ".hidden"}) {
    ShedRequest request;
    request.dataset = "clique";
    request.output = bad;
    auto response = client.Shed(request);
    ASSERT_FALSE(response.ok()) << bad;
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Persistent channels

TEST_F(RpcServerTest, ChannelReusesOneConnectionAcrossCalls) {
  RpcClient client = MakeClient();
  RpcClient::Channel channel(&client);
  for (uint64_t token = 1; token <= 5; ++token) {
    auto echoed = channel.Ping(token);
    ASSERT_TRUE(echoed.ok()) << echoed.status();
    EXPECT_EQ(*echoed, token);
  }
  ShedRequest request;
  request.dataset = "clique";
  request.p = 0.5;
  auto response = channel.Shed(request);
  ASSERT_TRUE(response.ok()) << response.status();

  // Six RPCs, one TCP accept: the channel really is persistent. (A per-RPC
  // client would have accepted six times.)
  EXPECT_EQ(Counter("net.accepted"), 1u);
  EXPECT_EQ(channel.reconnects(), 0);
}

TEST_F(RpcServerTest, ChannelRedialsAfterServerSideCloseAndCountsIt) {
  // An idle-reaped connection must not kill the channel: the next call
  // re-dials transparently and the re-dial is counted, both on the channel
  // and in the client registry's `net.client_reconnects`.
  RpcServerOptions options;
  options.idle_timeout = milliseconds(100);
  StartServer(options);

  obs::MetricsRegistry client_metrics;
  RpcClientOptions client_options;
  client_options.port = server_->port();
  client_options.max_attempts = 3;
  client_options.backoff_initial = milliseconds(5);
  client_options.backoff_max = milliseconds(20);
  RpcClient client(client_options, &client_metrics);
  RpcClient::Channel channel(&client);

  auto first = channel.Ping(1);
  ASSERT_TRUE(first.ok()) << first.status();
  std::this_thread::sleep_for(milliseconds(400));  // let the reaper fire

  auto second = channel.Ping(2);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*second, 2u);
  EXPECT_EQ(channel.reconnects(), 1);
  EXPECT_EQ(client_metrics.GetCounter("net.client_reconnects")->Value(), 1u);
  EXPECT_EQ(Counter("net.accepted"), 2u);
}

TEST_F(RpcServerTest, ChannelCloseIsNotTheEnd) {
  RpcClient client = MakeClient();
  RpcClient::Channel channel(&client);
  ASSERT_TRUE(channel.Ping(1).ok());
  channel.Close();
  auto echoed = channel.Ping(2);  // re-dials after an explicit Close
  ASSERT_TRUE(echoed.ok()) << echoed.status();
  EXPECT_EQ(*echoed, 2u);
  EXPECT_EQ(channel.reconnects(), 1);
}

// ---------------------------------------------------------------------------
// Serving QoS (ISSUE 8): reaper vs in-flight Waits, long-Wait recv
// deadlines, retry-after-drop idempotency, degradation over the wire

// Regression (satellite 1): a connection blocked in a Shed-with-wait longer
// than idle_timeout must NOT be reaped — only connections with no in-flight
// requests are idle. A genuinely idle connection opened alongside it IS
// reaped within the same window, proving the sweep ran while the busy
// connection survived.
TEST_F(RpcServerTest, IdleReaperSparesConnectionsBlockedInWait) {
  RpcServerOptions options;
  options.idle_timeout = milliseconds(150);
  StartServer(options);
  RegisterSlowDataset("slow", milliseconds(600));

  auto idle_fd = ConnectTcp("127.0.0.1", server_->port(), milliseconds(2000));
  ASSERT_TRUE(idle_fd.ok()) << idle_fd.status();
  ASSERT_TRUE(SetRecvTimeout(*idle_fd, milliseconds(3000)).ok());

  RpcClient client = MakeClient();
  ShedRequest request;
  request.dataset = "slow";
  request.method = "random";
  request.wait = true;
  request.deadline_ms = 10000;
  auto response = client.Shed(request);  // blocks ~600ms, 4x idle_timeout
  ASSERT_TRUE(response.ok())
      << "in-flight connection was reaped: " << response.status();
  ASSERT_TRUE(response->has_result);

  // The idle control connection was closed by the sweep (EOF).
  char chunk[64];
  auto n = RecvSome(*idle_fd, chunk, sizeof(chunk));
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0u);
  CloseFd(*idle_fd);
}

// Regression (satellite 2): a Wait-class RPC on a job that outlives the
// client's generic recv_timeout must derive its socket deadline from the
// job's deadline_ms instead of failing client-side while the server is
// still working. Before the fix both calls here died with the 150ms
// SO_RCVTIMEO despite healthy 500ms jobs.
TEST_F(RpcServerTest, LongWaitOutlivesGenericRecvTimeout) {
  RegisterSlowDataset("slow", milliseconds(500));

  RpcClientOptions options;
  options.port = server_->port();
  options.max_attempts = 1;
  options.recv_timeout = milliseconds(150);  // << job runtime
  RpcClient client(options);

  ShedRequest request;
  request.dataset = "slow";
  request.method = "random";
  request.wait = true;
  request.deadline_ms = 10000;
  auto response = client.Shed(request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->has_result);

  // Same derivation on a bare Wait: submit without waiting, then block on
  // the result with the job's deadline in hand.
  RegisterSlowDataset("slow2", milliseconds(500));
  ShedRequest submit = request;
  submit.dataset = "slow2";
  submit.wait = false;
  auto submitted = client.Shed(submit);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  auto summary = client.Wait(submitted->job_id, submit.deadline_ms);
  ASSERT_TRUE(summary.ok()) << summary.status();
}

// Regression (satellite 3): a client whose connection drops mid-flight and
// retries an identical wait=true Shed must not double-execute the job — the
// retry coalesces onto the in-flight primary (or hits the result cache).
TEST_F(RpcServerTest, RetryAfterDroppedConnectionExecutesJobExactlyOnce) {
  RegisterSlowDataset("slow", milliseconds(400));

  ShedRequest request;
  request.dataset = "slow";
  request.method = "random";
  request.p = 0.5;
  request.seed = 3;
  request.wait = true;
  request.deadline_ms = 10000;

  // First attempt over a raw socket, dropped mid-job.
  auto fd = ConnectTcp("127.0.0.1", server_->port(), milliseconds(2000));
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(
      SendAll(*fd, EncodeFrame(MessageType::kShedRequest,
                               EncodeShedRequest(request)))
          .ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Counter("scheduler.submitted") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "job never reached the scheduler";
    std::this_thread::sleep_for(milliseconds(1));
  }
  CloseFd(*fd);  // injected drop while the job is executing

  // The "retry": an identical request from a fresh connection.
  RpcClient client = MakeClient();
  auto response = client.Shed(request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->has_result);

  EXPECT_EQ(Counter("scheduler.submitted"), 2u);
  // Exactly one of the two submissions executed; the other deduplicated.
  EXPECT_EQ(Counter("scheduler.coalesced") +
                Counter("scheduler.result_cache_hit"),
            1u);
  EXPECT_EQ(metrics_.GetLatency("scheduler.run_seconds")->Snapshot().count,
            1u);
}

// Tentpole: tenant + priority travel over the wire into the scheduler's
// fair queues and per-tenant accounting.
TEST_F(RpcServerTest, TenantAndPriorityTravelOverTheWire) {
  RpcClient client = MakeClient();
  ShedRequest request;
  request.dataset = "clique";
  request.method = "random";
  request.tenant = "gold";
  request.priority = 1;
  request.wait = true;
  auto response = client.Shed(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(Counter("scheduler.tenant_submitted.gold"), 1u);
  EXPECT_EQ(Counter("scheduler.tenant_done.gold"), 1u);
  // Served exactly as asked: the degradation record says so explicitly.
  EXPECT_EQ(response->result.degrade_kind, 0);
}

// Tentpole: past max_inflight with degradation enabled, a request is
// admitted (not rejected) and answered with a recorded cheaper tier.
TEST_F(RpcServerTest, DegradedAdmissionAppliesRecordedCheaperTier) {
  RpcServerOptions options;
  options.max_inflight = 1;
  options.dispatch_threads = 4;
  options.degrade_enabled = true;
  service::JobScheduler::Options scheduler_options;
  scheduler_options.workers = 2;
  scheduler_options.degrade.enabled = true;
  StartServer(options, scheduler_options);
  RegisterSlowDataset("slow", milliseconds(600));

  // Occupy the single inflight slot with a long blocking Shed.
  std::thread occupant([this] {
    RpcClient client = MakeClient();
    ShedRequest request;
    request.dataset = "slow";
    request.method = "random";
    request.wait = true;
    request.deadline_ms = 10000;
    auto response = client.Shed(request);
    ASSERT_TRUE(response.ok()) << response.status();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (metrics_.GetGauge("net.inflight")->Value() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "occupant never went in flight";
    std::this_thread::sleep_for(milliseconds(1));
  }

  // Arrives past max_inflight: admitted under pressure instead of
  // ResourceExhausted, and served one ladder tier down (crr -> bm2 at
  // pressure 1.0 is two steps -> local-degree).
  RpcClient client = MakeClient();
  ShedRequest request;
  request.dataset = "clique";
  request.method = "crr";
  request.wait = true;
  request.deadline_ms = 10000;
  auto response = client.Shed(request);
  occupant.join();
  ASSERT_TRUE(response.ok())
      << "degrading server rejected instead of admitting: "
      << response.status();
  ASSERT_TRUE(response->has_result);
  EXPECT_EQ(response->result.degrade_kind,
            static_cast<uint8_t>(DegradeKind::kCheaperTier));
  EXPECT_EQ(response->result.applied_method, "local-degree");
  EXPECT_GE(Counter("net.degraded_admitted"), 1u);
  EXPECT_GE(Counter("net.degraded_applied"), 1u);
  EXPECT_EQ(Counter("net.rejected_overload"), 0u);

  // The wait=false path reports the applied tier through GetStatus.
  ShedRequest fire = request;
  fire.seed = 99;
  fire.wait = false;
  auto submitted = client.Shed(fire);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  auto wait_summary = client.Wait(submitted->job_id, fire.deadline_ms);
  ASSERT_TRUE(wait_summary.ok()) << wait_summary.status();
  auto job_status = client.GetJobStatus(submitted->job_id);
  ASSERT_TRUE(job_status.ok()) << job_status.status();
  EXPECT_EQ(job_status->applied_method, wait_summary->applied_method);
  EXPECT_EQ(job_status->degrade_kind, wait_summary->degrade_kind);
}

}  // namespace
}  // namespace edgeshed::net
