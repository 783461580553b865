#include "net/server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/strings.h"
#include "net/socket.h"
#include "service/dataset_registry.h"

namespace edgeshed::net {

namespace {

constexpr int kPollIntervalMs = 100;
constexpr size_t kRecvChunkBytes = 64 * 1024;

/// RecvSome/SendSome on the loop's non-blocking fds surface EAGAIN as
/// DeadlineExceeded (the blocking-socket timeout mapping); here that simply
/// means "drained for now".
bool IsWouldBlock(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

RpcServer::RpcServer(service::GraphStore* store,
                     service::JobScheduler* scheduler,
                     obs::MetricsRegistry* metrics, RpcServerOptions options,
                     obs::Tracer* tracer)
    : store_(store),
      scheduler_(scheduler),
      metrics_(metrics),
      tracer_(tracer),
      options_(std::move(options)) {
  if (metrics_ != nullptr) {
    instruments_.requests_total = metrics_->GetCounter("net.requests_total");
    instruments_.bytes_in = metrics_->GetCounter("net.bytes_in");
    instruments_.bytes_out = metrics_->GetCounter("net.bytes_out");
    instruments_.rejected_overload =
        metrics_->GetCounter("net.rejected_overload");
    instruments_.degraded_admitted =
        metrics_->GetCounter("net.degraded_admitted");
    instruments_.degraded_applied =
        metrics_->GetCounter("net.degraded_applied");
    instruments_.malformed_frames =
        metrics_->GetCounter("net.malformed_frames");
    instruments_.accepted = metrics_->GetCounter("net.accepted");
    instruments_.closed = metrics_->GetCounter("net.closed");
    instruments_.connections = metrics_->GetGauge("net.connections");
    instruments_.inflight = metrics_->GetGauge("net.inflight");
    instruments_.rpc_seconds = metrics_->GetLatency("net.rpc_seconds");
  }
}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (loop_thread_.joinable()) {
    return Status::FailedPrecondition("rpc server already started");
  }

  ListenOptions listen_options;
  listen_options.port = options_.port;
  listen_options.backlog = options_.backlog;
  listen_options.loopback_only = options_.loopback_only;
  auto listen_fd = ListenTcp(listen_options);
  if (!listen_fd.ok()) return listen_fd.status();
  listen_fd_ = *listen_fd;

  auto bound = BoundTcpPort(listen_fd_);
  if (!bound.ok()) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return bound.status();
  }
  port_ = *bound;

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("pipe() for event-loop wakeup failed");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  for (int fd : {listen_fd_, wake_read_fd_, wake_write_fd_}) {
    if (Status status = SetNonBlocking(fd, true); !status.ok()) {
      CloseFd(listen_fd_);
      CloseFd(wake_read_fd_);
      CloseFd(wake_write_fd_);
      listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
      return status;
    }
  }

  stopping_.store(false, std::memory_order_release);
  dispatch_shutdown_ = false;
  const int dispatchers = std::max(1, options_.dispatch_threads);
  dispatch_threads_.reserve(static_cast<size_t>(dispatchers));
  for (int i = 0; i < dispatchers; ++i) {
    dispatch_threads_.emplace_back([this] { DispatchLoop(); });
  }
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!loop_thread_.joinable() && dispatch_threads_.empty()) return;

  stopping_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
  if (loop_thread_.joinable()) loop_thread_.join();

  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    dispatch_shutdown_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : dispatch_threads_) {
    if (t.joinable()) t.join();
  }
  dispatch_threads_.clear();

  CloseFd(listen_fd_);
  CloseFd(wake_read_fd_);
  CloseFd(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  tasks_.clear();
  completions_.clear();
}

// ---------------------------------------------------------------------------
// Event loop

void RpcServer::EventLoop() {
  std::chrono::steady_clock::time_point drain_deadline{};
  bool draining = false;

  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && !draining) {
      draining = true;
      drain_deadline = std::chrono::steady_clock::now() +
                       options_.drain_timeout;
    }
    if (draining) {
      bool queues_empty;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queues_empty = tasks_.empty() && completions_.empty();
      }
      const bool output_pending = std::any_of(
          connections_.begin(), connections_.end(), [](const auto& kv) {
            return kv.second->out_off < kv.second->outbuf.size();
          });
      if ((inflight_ == 0 && queues_empty && !output_pending) ||
          std::chrono::steady_clock::now() >= drain_deadline) {
        break;
      }
    }

    std::vector<pollfd> pfds;
    std::vector<uint64_t> pfd_conn_ids;  // parallel to pfds, 0 = not a conn
    pfds.reserve(connections_.size() + 2);
    pfd_conn_ids.reserve(connections_.size() + 2);

    pfds.push_back({wake_read_fd_, POLLIN, 0});
    pfd_conn_ids.push_back(0);
    if (!draining) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn_ids.push_back(0);
    }
    for (const auto& [id, conn] : connections_) {
      short events = 0;
      // During drain we only flush; new frames are no longer read.
      if (!draining && !conn->closing) events |= POLLIN;
      if (conn->out_off < conn->outbuf.size()) events |= POLLOUT;
      if (events == 0) continue;
      pfds.push_back({conn->fd, events, 0});
      pfd_conn_ids.push_back(id);
    }

    int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                       kPollIntervalMs);
    if (ready < 0 && errno != EINTR) break;  // unrecoverable loop failure
    const auto now = std::chrono::steady_clock::now();

    if (ready > 0) {
      for (size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        if (pfds[i].fd == wake_read_fd_) {
          char buf[256];
          while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
          }
          continue;
        }
        if (pfds[i].fd == listen_fd_ && pfd_conn_ids[i] == 0) {
          AcceptNew(now);
          continue;
        }
        const uint64_t conn_id = pfd_conn_ids[i];
        auto it = connections_.find(conn_id);
        if (it == connections_.end()) continue;
        Connection& conn = *it->second;
        if ((pfds[i].revents & (POLLERR | POLLNVAL)) != 0) {
          CloseConnection(conn_id);
          continue;
        }
        if ((pfds[i].revents & POLLOUT) != 0) FlushConnection(conn);
        if (connections_.find(conn_id) == connections_.end()) continue;
        if ((pfds[i].revents & (POLLIN | POLLHUP)) != 0) {
          ReadFromConnection(conn, now);
        }
      }
    }

    ApplyCompletions();

    // Idle sweep: connections with no traffic and no in-flight work.
    if (options_.idle_timeout.count() > 0 && !draining) {
      std::vector<uint64_t> idle;
      for (const auto& [id, conn] : connections_) {
        if (conn->inflight == 0 &&
            conn->out_off >= conn->outbuf.size() &&
            now - conn->last_activity > options_.idle_timeout) {
          idle.push_back(id);
        }
      }
      for (uint64_t id : idle) CloseConnection(id);
    }
  }

  // Cleanup: anything still open is force-closed (drain either completed or
  // timed out).
  std::vector<uint64_t> remaining;
  remaining.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) remaining.push_back(id);
  for (uint64_t id : remaining) CloseConnection(id);
}

void RpcServer::AcceptNew(std::chrono::steady_clock::time_point now) {
  for (;;) {
    auto accepted = AcceptConnection(listen_fd_);
    if (!accepted.ok()) return;  // transient accept failure; retry on next poll
    const int fd = *accepted;
    if (fd < 0) return;  // queue drained

    if (connections_.size() >= options_.max_connections) {
      // Admission control: tell the client why before hanging up, on the
      // still-blocking fresh fd (one small frame).
      if (instruments_.rejected_overload != nullptr) {
        instruments_.rejected_overload->Increment();
      }
      const std::string frame = EncodeFrame(
          MessageType::kErrorResponse,
          EncodeResponsePayload(Status::ResourceExhausted(StrFormat(
              "connection limit reached (%zu)", options_.max_connections))));
      [[maybe_unused]] Status ignored = SendAll(fd, frame);
      CloseFd(fd);
      continue;
    }
    if (Status status = SetNonBlocking(fd, true); !status.ok()) {
      CloseFd(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->last_activity = now;
    if (instruments_.accepted != nullptr) instruments_.accepted->Increment();
    connections_.emplace(conn->id, std::move(conn));
    PublishConnGauges();
  }
}

void RpcServer::ReadFromConnection(Connection& conn,
                                   std::chrono::steady_clock::time_point now) {
  const uint64_t conn_id = conn.id;
  char buf[kRecvChunkBytes];
  for (;;) {
    auto n = RecvSome(conn.fd, buf, sizeof(buf));
    if (!n.ok()) {
      if (IsWouldBlock(n.status())) break;  // drained
      CloseConnection(conn_id);
      return;
    }
    if (*n == 0) {  // orderly EOF; drop pending replies, the peer left
      CloseConnection(conn_id);
      return;
    }
    conn.inbuf.append(buf, *n);
    conn.last_activity = now;
    if (instruments_.bytes_in != nullptr) {
      instruments_.bytes_in->Increment(*n);
    }
    if (*n < sizeof(buf)) break;  // likely drained; poll tells us otherwise
  }

  size_t offset = 0;
  while (!conn.closing) {
    DecodeResult decoded =
        DecodeFrame(std::string_view(conn.inbuf).substr(offset));
    if (decoded.event == DecodeEvent::kNeedMoreData) break;
    if (decoded.event == DecodeEvent::kError) {
      // Framing is lost: answer once, then close after the flush.
      if (instruments_.malformed_frames != nullptr) {
        instruments_.malformed_frames->Increment();
      }
      EnqueueResponse(conn, MessageType::kErrorResponse,
                      EncodeResponsePayload(decoded.error));
      conn.closing = true;
      offset = conn.inbuf.size();
      break;
    }
    offset += decoded.consumed;
    HandleDecodedFrame(conn, std::move(decoded.frame));
  }
  if (offset > 0) conn.inbuf.erase(0, offset);
  if (connections_.find(conn_id) != connections_.end()) {
    FlushConnection(conn);
  }
}

void RpcServer::HandleDecodedFrame(Connection& conn, Frame frame) {
  if (instruments_.requests_total != nullptr) {
    instruments_.requests_total->Increment();
  }
  if (!IsRequestType(frame.type)) {
    if (instruments_.malformed_frames != nullptr) {
      instruments_.malformed_frames->Increment();
    }
    EnqueueResponse(
        conn, MessageType::kErrorResponse,
        EncodeResponsePayload(Status::InvalidArgument(StrFormat(
            "expected a request frame, got %.*s",
            static_cast<int>(MessageTypeToString(frame.type).size()),
            MessageTypeToString(frame.type).data()))));
    conn.closing = true;
    return;
  }

  if (frame.type == MessageType::kPingRequest) {
    // Pings never leave the loop thread: they measure transport liveness,
    // not dispatch capacity, and must work even at max_inflight.
    PingMessage ping;
    if (Status status = DecodePing(frame.payload, &ping); !status.ok()) {
      EnqueueResponse(conn, MessageType::kPingResponse,
                      EncodeResponsePayload(status));
      return;
    }
    EnqueueResponse(conn, MessageType::kPingResponse,
                    EncodeResponsePayload(Status::OK(), EncodePing(ping)));
    return;
  }

  // Admission control. Without degradation the boundary is max_inflight,
  // exactly as before. With it, requests between max_inflight and the hard
  // ceiling are *admitted* carrying a pressure hint — the scheduler answers
  // them with a cheaper tier or a cached coarser-p result instead of the
  // caller eating a ResourceExhausted (DESIGN.md §13).
  const size_t hard_cap =
      !options_.degrade_enabled ? options_.max_inflight
      : options_.max_pending > 0 ? options_.max_pending
                                 : options_.max_inflight * 4;
  if (inflight_ >= hard_cap) {
    if (instruments_.rejected_overload != nullptr) {
      instruments_.rejected_overload->Increment();
    }
    EnqueueResponse(
        conn, ResponseTypeFor(frame.type),
        EncodeResponsePayload(Status::ResourceExhausted(StrFormat(
            "server at max in-flight requests (%zu)", hard_cap))));
    return;
  }
  double pressure = 0.0;
  if (options_.degrade_enabled && options_.max_inflight > 0 &&
      inflight_ >= options_.max_inflight) {
    pressure = static_cast<double>(inflight_) /
               static_cast<double>(options_.max_inflight);
    if (instruments_.degraded_admitted != nullptr) {
      instruments_.degraded_admitted->Increment();
    }
  }

  ++inflight_;
  ++conn.inflight;
  if (instruments_.inflight != nullptr) {
    instruments_.inflight->Set(static_cast<int64_t>(inflight_));
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    tasks_.push_back(Task{conn.id, std::move(frame), pressure});
  }
  task_available_.notify_one();
}

void RpcServer::EnqueueResponse(Connection& conn, MessageType type,
                                std::string_view payload) {
  conn.outbuf.append(EncodeFrame(type, payload));
}

void RpcServer::FlushConnection(Connection& conn) {
  const uint64_t conn_id = conn.id;
  while (conn.out_off < conn.outbuf.size()) {
    auto n = SendSome(conn.fd,
                      std::string_view(conn.outbuf).substr(conn.out_off));
    if (!n.ok()) {
      CloseConnection(conn_id);
      return;
    }
    if (*n == 0) return;  // socket buffer full; POLLOUT resumes us
    conn.out_off += *n;
    if (instruments_.bytes_out != nullptr) {
      instruments_.bytes_out->Increment(*n);
    }
  }
  conn.outbuf.clear();
  conn.out_off = 0;
  if (conn.closing && conn.inflight == 0) CloseConnection(conn_id);
}

void RpcServer::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  CloseFd(it->second->fd);
  connections_.erase(it);
  if (instruments_.closed != nullptr) instruments_.closed->Increment();
  PublishConnGauges();
}

void RpcServer::ApplyCompletions() {
  std::deque<Completion> done;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    done.swap(completions_);
  }
  for (Completion& completion : done) {
    --inflight_;
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // client left; drop the reply
    Connection& conn = *it->second;
    --conn.inflight;
    conn.outbuf.append(completion.bytes);
    conn.last_activity = std::chrono::steady_clock::now();
    FlushConnection(conn);
  }
  if (instruments_.inflight != nullptr) {
    instruments_.inflight->Set(static_cast<int64_t>(inflight_));
  }
}

void RpcServer::PublishConnGauges() {
  if (instruments_.connections != nullptr) {
    instruments_.connections->Set(
        static_cast<int64_t>(connections_.size()));
  }
}

// ---------------------------------------------------------------------------
// Dispatch

void RpcServer::DispatchLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      task_available_.wait(
          lock, [this] { return dispatch_shutdown_ || !tasks_.empty(); });
      if (dispatch_shutdown_) return;  // drain already happened (or timed out)
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }

    std::string response = HandleRequest(task.frame, task.pressure);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      completions_.push_back(Completion{task.conn_id, std::move(response)});
    }
    if (wake_write_fd_ >= 0) {
      const char byte = 1;
      // A full pipe already guarantees a pending wakeup.
      [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
    }
  }
}

std::string RpcServer::HandleRequest(const Frame& frame, double pressure) {
  const auto start = std::chrono::steady_clock::now();
  obs::Span span = obs::Tracer::StartSpan(
      tracer_, StrFormat("rpc.%.*s",
                         static_cast<int>(MessageTypeToString(frame.type).size()),
                         MessageTypeToString(frame.type).data()));

  std::string response;
  switch (frame.type) {
    case MessageType::kShedRequest:
      response = HandleShed(frame.payload, pressure);
      break;
    case MessageType::kWaitRequest:
      response = HandleWait(frame.payload);
      break;
    case MessageType::kGetStatusRequest:
      response = HandleGetStatus(frame.payload);
      break;
    case MessageType::kCancelRequest:
      response = HandleCancel(frame.payload);
      break;
    case MessageType::kListDatasetsRequest:
      response = HandleListDatasets(frame.payload);
      break;
    case MessageType::kApplyMutationsRequest:
      response = HandleApplyMutations(frame.payload);
      break;
    default:
      // Ping is loop-inline and non-requests never reach dispatch.
      response = EncodeFrame(
          MessageType::kErrorResponse,
          EncodeResponsePayload(Status::Internal("unroutable request type")));
      break;
  }

  span.End();
  if (instruments_.rpc_seconds != nullptr) {
    instruments_.rpc_seconds->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
  return response;
}

Status RpcServer::WaitForResult(uint64_t job_id, ResultSummary* summary) {
  auto result = scheduler_->Wait(job_id);
  if (!result.ok()) return result.status();
  const core::SheddingResult& shed = **result;
  summary->job_id = job_id;
  summary->kept_edges = shed.kept_edges.size();
  summary->total_delta = shed.total_delta;
  summary->average_delta = shed.average_delta;
  summary->reduction_seconds = shed.reduction_seconds;
  summary->stats = shed.stats;
  if (auto status = scheduler_->GetStatus(job_id); status.ok()) {
    summary->deduplicated = status->deduplicated;
    summary->applied_method = status->applied_method;
    summary->applied_p = status->applied_p;
    summary->degrade_kind = static_cast<uint8_t>(status->degrade_kind);
    if (summary->degrade_kind != 0 &&
        instruments_.degraded_applied != nullptr) {
      instruments_.degraded_applied->Increment();
    }
  }
  return Status::OK();
}

std::string RpcServer::HandleShed(std::string_view payload, double pressure) {
  ShedRequest request;
  if (Status status = DecodeShedRequest(payload, &request); !status.ok()) {
    return EncodeFrame(MessageType::kShedResponse,
                       EncodeResponsePayload(status));
  }
  service::JobSpec spec;
  spec.dataset = request.dataset;
  spec.method = request.method;
  spec.p = request.p;
  spec.seed = request.seed;
  spec.deadline =
      std::chrono::milliseconds(static_cast<int64_t>(request.deadline_ms));
  spec.tenant = request.tenant;
  spec.priority = request.priority != 0;
  spec.allow_degrade = options_.degrade_enabled;
  spec.pressure = pressure;
  if (!request.output.empty()) {
    if (options_.output_dir.empty()) {
      return EncodeFrame(
          MessageType::kShedResponse,
          EncodeResponsePayload(Status::InvalidArgument(
              "this server has no output directory "
              "(RpcServerOptions::output_dir is empty)")));
    }
    if (!service::IsSafeDatasetName(request.output)) {
      return EncodeFrame(
          MessageType::kShedResponse,
          EncodeResponsePayload(Status::InvalidArgument(StrFormat(
              "unsafe output name '%s'", request.output.c_str()))));
    }
    spec.output_path = options_.output_dir + "/" + request.output + ".esg";
  }
  auto id = scheduler_->Submit(spec);
  if (!id.ok()) {
    return EncodeFrame(MessageType::kShedResponse,
                       EncodeResponsePayload(id.status()));
  }
  ShedResponse response;
  response.job_id = *id;
  if (request.wait) {
    if (Status status = WaitForResult(*id, &response.result); !status.ok()) {
      return EncodeFrame(MessageType::kShedResponse,
                         EncodeResponsePayload(status));
    }
    response.has_result = true;
  }
  return EncodeFrame(
      MessageType::kShedResponse,
      EncodeResponsePayload(Status::OK(), EncodeShedResponseBody(response)));
}

std::string RpcServer::HandleWait(std::string_view payload) {
  JobIdRequest request;
  if (Status status = DecodeJobIdRequest(payload, &request); !status.ok()) {
    return EncodeFrame(MessageType::kWaitResponse,
                       EncodeResponsePayload(status));
  }
  ResultSummary summary;
  if (Status status = WaitForResult(request.job_id, &summary); !status.ok()) {
    return EncodeFrame(MessageType::kWaitResponse,
                       EncodeResponsePayload(status));
  }
  return EncodeFrame(MessageType::kWaitResponse,
                     EncodeResponsePayload(Status::OK(),
                                           EncodeResultSummaryBody(summary)));
}

std::string RpcServer::HandleGetStatus(std::string_view payload) {
  JobIdRequest request;
  if (Status status = DecodeJobIdRequest(payload, &request); !status.ok()) {
    return EncodeFrame(MessageType::kGetStatusResponse,
                       EncodeResponsePayload(status));
  }
  auto job = scheduler_->GetStatus(request.job_id);
  if (!job.ok()) {
    return EncodeFrame(MessageType::kGetStatusResponse,
                       EncodeResponsePayload(job.status()));
  }
  GetStatusResponse response;
  response.state = static_cast<uint8_t>(job->state);
  response.code = WireCodeFromStatus(job->status.code());
  response.message = job->status.message();
  response.deduplicated = job->deduplicated;
  response.queue_seconds = job->queue_seconds;
  response.run_seconds = job->run_seconds;
  response.applied_method = job->applied_method;
  response.applied_p = job->applied_p;
  response.degrade_kind = static_cast<uint8_t>(job->degrade_kind);
  return EncodeFrame(
      MessageType::kGetStatusResponse,
      EncodeResponsePayload(Status::OK(),
                            EncodeGetStatusResponseBody(response)));
}

std::string RpcServer::HandleCancel(std::string_view payload) {
  JobIdRequest request;
  if (Status status = DecodeJobIdRequest(payload, &request); !status.ok()) {
    return EncodeFrame(MessageType::kCancelResponse,
                       EncodeResponsePayload(status));
  }
  const Status cancelled = scheduler_->Cancel(request.job_id);
  return EncodeFrame(MessageType::kCancelResponse,
                     EncodeResponsePayload(cancelled));
}

std::string RpcServer::HandleListDatasets(std::string_view payload) {
  if (!payload.empty()) {
    return EncodeFrame(
        MessageType::kListDatasetsResponse,
        EncodeResponsePayload(Status::InvalidArgument(
            "ListDatasets request carries no payload")));
  }
  ListDatasetsResponse response;
  response.names = store_->RegisteredNames();
  // Sorted reply regardless of how the store enumerates: client output (and
  // the CLI's) must be deterministic across runs and store implementations.
  std::sort(response.names.begin(), response.names.end());
  return EncodeFrame(
      MessageType::kListDatasetsResponse,
      EncodeResponsePayload(Status::OK(),
                            EncodeListDatasetsResponseBody(response)));
}

std::string RpcServer::HandleApplyMutations(std::string_view payload) {
  ApplyMutationsRequest request;
  if (Status status = DecodeApplyMutationsRequest(payload, &request);
      !status.ok()) {
    return EncodeFrame(MessageType::kApplyMutationsResponse,
                       EncodeResponsePayload(status));
  }
  graph::MutationBatch batch;
  batch.inserts.reserve(request.inserts.size());
  for (const auto& [u, v] : request.inserts) {
    batch.inserts.push_back({u, v});
  }
  batch.deletes.reserve(request.deletes.size());
  for (const auto& [u, v] : request.deletes) {
    batch.deletes.push_back({u, v});
  }
  auto version = store_->ApplyMutations(request.dataset, std::move(batch));
  if (!version.ok()) {
    return EncodeFrame(MessageType::kApplyMutationsResponse,
                       EncodeResponsePayload(version.status()));
  }
  ApplyMutationsResponse response;
  response.version = *version;
  // Overlay/compaction introspection for the caller; the batch is already
  // durably applied, so a failure here would only lose the nice-to-have
  // counters — and DynGraph cannot fail after a successful ApplyMutations.
  if (auto dyn_graph = store_->DynGraph(request.dataset); dyn_graph.ok()) {
    const std::shared_ptr<const dyn::DeltaGraph> snap =
        (*dyn_graph)->Snapshot();
    response.live_edges = snap->NumEdges();
    response.overlay_inserted = snap->inserted().size();
    response.overlay_deleted = snap->deleted_ids().size();
    response.compacting = (*dyn_graph)->CompactionInProgress() ? 1 : 0;
  }
  return EncodeFrame(
      MessageType::kApplyMutationsResponse,
      EncodeResponsePayload(Status::OK(),
                            EncodeApplyMutationsResponseBody(response)));
}

}  // namespace edgeshed::net
